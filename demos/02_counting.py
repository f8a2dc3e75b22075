"""A small STV count, round by round.

Two groups contest two seats.  Group A's lead candidate polls far over
quota, so the surplus transfer decides the final seat; the transcript shows
every tally, the transfer value, and the votes lost to integer rounding.
"""
from stvsim import (
    Candidate,
    CountRules,
    ElectionMeta,
    Group,
    Preferences,
    TallyRounding,
    VoteStyle,
    count_stv,
    droop_quota,
    expand_to_candidates,
)

meta = ElectionMeta(
    name="two-group demo",
    seats=2,
    groups=(Group("A", "Apples"), Group("B", "Bananas")),
    candidates=(
        Candidate("a1", "Amelia", "A", 1),
        Candidate("a2", "Arthur", "A", 2),
        Candidate("b1", "Bart", "B", 1),
        Candidate("b2", "Billie", "B", 2),
    ),
)

preferences = [
    (Preferences(VoteStyle.ATL, ("A", "B")), 617),   # expands to a1, a2, b1, b2
    (Preferences(VoteStyle.BTL, ("b1", "a2")), 247),
    (Preferences(VoteStyle.BTL, ("b2", "b1")), 136),
]
# The count takes checked candidate rankings, so each ballot is expanded first.
ballots = [(expand_to_candidates(prefs, meta), n) for prefs, n in preferences]

total = sum(m for _, m in ballots)
print(f"{total} formal ballots, quota {droop_quota(total, meta.seats)}")
print()

winners, transcript = count_stv(ballots, meta)
print(transcript.to_text())
print("winners:", ", ".join(winners))
print(f"rounding loss: {transcript.rounding_loss}, exhausted: {transcript.exhausted}")

print()
print("same election under exact rational arithmetic:")
_, exact = count_stv(ballots, meta, CountRules(tally_rounding=TallyRounding.EXACT))
final = exact.rounds[-1]
for cid, tally in final.tallies.items():
    print(f"  {cid}: {tally}")
