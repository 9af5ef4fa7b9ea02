"""Wire format and carriers for the three-party protocol.

frames   fixed header + payload + truncated-polynomial tag; the phase table
runners  sans-IO per-role state machines (all protocol decisions)
channel  in-process carrier with deterministic fault injection
sockets  TCP carrier running the same runners over real connections
traffic  semantic-bit accounting against the phase budgets
"""
