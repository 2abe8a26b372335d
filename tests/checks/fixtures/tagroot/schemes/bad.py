"""Seeded tag-safety violation."""

from hw.tlb import SetAssociativeTLB
from schemes.base import TranslationScheme


class RawKeyScheme(TranslationScheme):
    """Writes raw keys into the L2 buckets: no tag packing anywhere in
    the access_block tree -> key-idiom finding."""

    tag_safe_block = True

    def __init__(self, mapping, config):
        super().__init__(mapping, config)
        self.l2 = SetAssociativeTLB(1024, 8)

    def access(self, vpn):
        return vpn

    def access_block(self, vpns):
        for vpn in vpns:
            self._fill_raw(vpn)

    def _fill_raw(self, vpn):
        # Raw key, ignores self.l2._tag_base entirely.
        self.l2._sets[vpn] = vpn

    def _reset_clone(self):
        self.l2 = SetAssociativeTLB(1024, 8)
