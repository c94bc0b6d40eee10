"""Full protocol walkthrough: deal, verify, recover three ways, catch tampering.

Two secrets with different thresholds go to six participants who each hold
one 16-bit binary share; every public value lands on the bulletin.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mss import (
    Drbg,
    SchemeParams,
    Share,
    Variant,
    deal,
    first_unbound,
    participant_subshadows,
    privacy_rank_probe,
    recover_way1_lagrange,
    recover_way1_vandermonde,
    recover_way2,
    verify_secret,
)

params = SchemeParams(variant=Variant.S1, n=6, k=2, thresholds=(2, 3), q=97)
rng = Drbg(2024)
secrets = [(41, 7), (13, 58, 92)]
shares, board = deal(params, secrets, rng)

print(f"dealt {params.k} secrets to {params.n} participants, r = {params.r} bits")
print("thresholds:", params.thresholds)
print()

print("participants verify their shares against the published commitments:")
for share in shares:
    ok = first_unbound(board.setup, [share]) is None
    print(f"  participant {share.owner}: {'ok' if ok else 'BAD'}")
print()

# Secret 2 (threshold 3), recovered by three different paths in any order.
group = [shares[1], shares[3], shares[5]]  # owners 2, 4, 6
sub = participant_subshadows(board, 2, group)
print("owners 2, 4, 6 recover secret 2:")
print("  linear solve :", recover_way1_vandermonde(board, 2, sub))
print("  at-zero form :", recover_way1_lagrange(board, 2, sub))
run = participant_subshadows(board, 2, shares[2:5])  # owners 3, 4, 5
print("  backward walk:", recover_way2(board, 2, run), "(consecutive owners 3-5)")
print("  dealer's own :", tuple(secrets[1]))
print()

# Secret 1 recovers independently, later, from a different pair.
pair = participant_subshadows(board, 1, [shares[4], shares[0]])
got = recover_way1_lagrange(board, 1, pair)
print("owners 1 and 5 recover secret 1:", got, "verified:", verify_secret(board, 1, got))
print()

# A flipped share bit is caught immediately.
victim = shares[0]
bits = list(victim.bits)
bits[3] ^= 1
forged = Share(owner=victim.owner, bits=tuple(bits))
caught = first_unbound(board.setup, [forged]) is forged
print("flipping one bit of participant 1's share is detected:", caught)

# A wrong recovered value fails the published digest.
wrong = (got[0], (got[1] + 1) % params.q)
print("altering one recovered component is detected:", not verify_secret(board, 1, wrong))
print()

# Below the threshold, the bulletin pins everything except the secret.
two_of_three = participant_subshadows(board, 2, [shares[0], shares[3]])
probe = privacy_rank_probe(board, 2, two_of_three)
print(
    f"with 2 of 3 required subshadows: rank {probe.rank}, "
    f"{probe.free_dims} free dimension(s)"
)
for s, (a, b) in enumerate(probe.a0_witnesses):
    print(f"  component {s}: both {a} and {b} remain consistent candidates")
