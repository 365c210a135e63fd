"""The naive all-radios scan: the link cache's test oracle.

:class:`repro.phy.Channel` resolves audibility, neighbor sets and pair
geometry through its :class:`~repro.phy.LinkCache`.  :class:`NaiveChannel`
answers the same three queries by scanning every attached radio with
fresh trig and a fresh link budget per pair, as the channel did before
the cache existed.  The cache is still built (attach and move
notifications reach it) but never read.

Whole networks run on it by patching the network module::

    monkeypatch.setattr(repro.net.network, "Channel", NaiveChannel)
"""

from repro.phy.channel import Channel
from repro.phy.linkcache import Link


class NaiveChannel(Channel):
    """A :class:`~repro.phy.Channel` whose queries bypass the cache."""

    def audible_entries(self, sender, pattern):
        entries = []
        link_budget = self.reception.link_budget
        src = sender.position
        for node_id, radio in self._radios.items():
            if node_id == sender.node_id:
                continue
            dst = radio.position
            audible, power = link_budget(sender.node_id, node_id, src, dst)
            if not audible:
                continue
            bearing = src.bearing_to(dst)
            if not pattern.covers(bearing):
                continue
            entries.append(
                (node_id, bearing, self.propagation.delay(src, dst), power)
            )
        return entries

    def neighbors_of(self, node_id):
        me = self._radios[node_id]
        link_budget = self.reception.link_budget
        return [
            other_id
            for other_id, radio in self._radios.items()
            if other_id != node_id
            and link_budget(node_id, other_id, me.position, radio.position)[0]
        ]

    def link(self, src_id, dst_id):
        src = self._radios[src_id].position
        dst = self._radios[dst_id].position
        audible, rx_power = self.reception.link_budget(src_id, dst_id, src, dst)
        return Link(
            in_range=audible,
            distance_m=src.distance_to(dst),
            bearing=src.bearing_to(dst),
            delay_ns=self.propagation.delay(src, dst),
            rx_power=rx_power,
        )
