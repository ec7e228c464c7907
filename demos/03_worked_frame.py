"""One frame under attack, slot by slot.

An adversary sprays k random-phase pulses over the frame, hoping to cancel
the pulses it happens to hit in reciprocal phase and to fill some empty
slots so the frame still reads as a code at a later arrival time. Energy
is the giveaway: every injection that does not cancel adds power, and the
receiver knows how much total energy a frame from the claimed distance may
carry. This reproduces the shipped walk-through; `uwblab example` prints
the same story with the power budget spelled out in physical units.
"""

from uwblab.adversary import AttackPlan
from uwblab.channel import synthesize_timeline, unity_link
from uwblab.codec import code_from_line
from uwblab.receiver import Thresholds, attack_plausibility

code = code_from_line("0,-1,0,0,0,-1,1,0,0,0,0,0,1,0,-1,0,0,0")
plan = AttackPlan(phases=(1, 1, 0, 0, -1, 0, 1, -1, 1, 0, 0, -1, 1, 0, 0, 0, -1, -1))
timeline = synthesize_timeline(code, unity_link(), attack=plan)
received = timeline.amplitudes[timeline.slot_bins(timeline.start_bin)]
energies = received**2

print("sent:     %s" % ",".join("%+d" % s for s in code.slots))
print("injected: %s" % ",".join("%+d" % s if s else " 0" for s in plan.phases))
print("received: %s" % ",".join("%+d" % round(a) for a in received))
print("energies: %s" % ",".join("%2d" % round(v) for v in energies))

gamma_upper = 12.0  # 5 pulses at the claimed distance, small-integer units
verdict = attack_plausibility(energies, Thresholds(0.0, gamma_upper))
print()
print("aggregate %d vs ceiling %d -> %s" % (energies.sum(), gamma_upper, verdict))
