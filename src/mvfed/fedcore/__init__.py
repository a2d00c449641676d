"""Federation substrate: typed messages, wire codec, transports, rounds.

`messages` holds the typed messages and the sealed reply stacks, `wire`
the byte codec, `transport` the in-process and framed transports,
`rounds` the round drivers and their logs, and `fedavg` the weighted
average.  Each public name below is imported from its submodule on
first access (PEP 562) and then cached here, as in the `mvfed` package,
so `from mvfed import fedcore` loads no submodule: only a federated run
(`vfed`, `hfed`, `sfed`) loads the parts it uses.
"""

import importlib

_EXPORTS = {
    "fedavg": ("fedavg_aggregate",),
    "messages": (
        "HORIZONTAL_KINDS",
        "SEQUENTIAL_KINDS",
        "SERVER_WIRE_ID",
        "VERTICAL_KINDS",
        "FedMessage",
        "MessageKind",
        "PartyId",
        "seal_rows",
        "stack_rows",
    ),
    "rounds": (
        "Federation",
        "MessageRecord",
        "RoundLog",
        "RoundRecord",
        "disallowed_kinds",
        "run_federations",
        "run_rounds",
    ),
    "transport": ("FramedByteTransport", "InProcessTransport"),
    "wire": ("decode_message", "encode_message", "frame_size"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
