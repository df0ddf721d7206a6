"""Fixture: a second client tier that forgot ``decode_swap``.

The server and primary client are complete, but this extra client never
calls ``decode_swap`` -- the extra-clients sweep must flag ``SWAP`` as
undecodable *by this tier* even though the primary client covers it.
"""

import wire


class AsyncClient:
    def call(self, payload):
        return wire.decode_result(payload)

    def ping(self, payload):
        return wire.decode_pong(payload)

    def on_error(self, payload):
        return wire.decode_error(payload)
