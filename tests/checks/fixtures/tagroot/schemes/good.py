"""Clean tag-safety patterns: nothing here may be flagged."""

from hw.tlb import TAG_SHIFT, SetAssociativeTLB
from schemes.base import TranslationScheme
from sim.lru import simulate_block


class BatchedScheme(TranslationScheme):
    """Evidence through simulate_block, two helpers deep."""

    tag_safe_block = True

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        self._resolve(vpns)

    def _resolve(self, vpns):
        return simulate_block(self.l2, vpns, vpns, None)

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)


class OrIdiomScheme(TranslationScheme):
    """Evidence through the explicit tag-base OR idiom."""

    tag_safe_block = True

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        tag_base = self.l2.tag << TAG_SHIFT
        for vpn in vpns:
            self.l2._sets[vpn | tag_base] = vpn

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)


class OptOutScheme(TranslationScheme):
    """tag_safe_block = False opts out of tagging wholesale: raw keys
    are fine here."""

    tag_safe_block = False

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        for vpn in vpns:
            self.l2._sets[vpn] = vpn

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)
