"""Day-ahead energy management for an electric railway station with an EV lot.

The package assembles a stochastic mixed-integer program for station dispatch
(grid exchange, solar, braking-fed storage, flexible EV charging under a peak
cap), solves it exactly with its own simplex plus branch-and-bound stack, and
reports optimal schedules with independent constraint certification.
"""
