from hw.tlb import SetAssociativeTLB


class TranslationScheme:
    tag_safe_block = True

    def __init__(self, mapping, config):
        self.mapping = mapping
        self.config = config
        self.l1 = SetAssociativeTLB(64, 4)

    def access(self, vpn):
        raise NotImplementedError

    def access_block(self, vpns):
        for vpn in vpns:
            self.access(vpn)

    def _prepare_share(self):
        pass

    def _reset_clone(self):
        pass
