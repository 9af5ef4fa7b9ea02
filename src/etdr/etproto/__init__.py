"""Three-party equality-testing protocol: key material, round logic, state.

The dealer (TTP) hands each party a key file; the parties later submit
one-time-pad-encrypted digest vectors of their data, the TTP announces
whether the data matched, and on dispute each party reveals its data so
the TTP can rule on who originally told the truth.
"""
