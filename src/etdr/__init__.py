"""etdr: information-theoretically secure equality testing with dispute resolution.

A trusted third party (TTP) hands two parties partially overlapping key
material; the parties later check whether their data agree by exchanging
one-time-pad encrypted universal-hash vectors through the TTP, and, if one
of them disputes the outcome, the TTP arbitrates from the claims alone.
The package also ships the exact security-bound calculator for the scheme
and an adversarial game harness that plays against those bounds.
"""

__version__ = "0.1.0"
