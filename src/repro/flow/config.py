"""Flow-control constants.

The flow substrate runs at one fixed setting, as the paper's sidecar
runs one fixed policy: ``flow=True`` engages per-client token-bucket
admission, batched dispatch, credit advertisement and client pacing
at the values below.  ``flow=False`` everywhere means *off* — the code
paths then reduce byte-for-byte to the pre-flow behaviour (the flow-off
rows of the golden ``tests/golden/referee.json`` pin this).
"""

#: Per-client admission rate (frames/s) and burst of the sidecar's
#: token buckets.  The rate sits above the 30 FPS replay rate: honest
#: clients are never clipped, only misbehaving (hot) ones.
ADMISSION_RATE_FPS = 45.0
ADMISSION_BURST = 12

#: Frames one dispatch round may drain into a single batched hand-off.
#: Calibrated against the C12 capacity probe: batches of three amortize
#: enough dispatch/compute overhead to lift throughput without letting
#: whole-batch completion inflate the p95 past the 100 ms XR budget
#: (larger batches gain throughput the SLO cannot spend).
BATCH_MAX = 3

#: Interval between a sidecar's credit advertisements.
ADVERTISE_INTERVAL_S = 0.050
#: Advertisements older than this are ignored (a silent downstream
#: must not wedge senders at its last advertised value).
CREDIT_TTL_S = 0.500
#: Upstream addresses not heard from for this long stop receiving
#: advertisements.
UPSTREAM_WINDOW_S = 5.0

#: Client send pacing: token-bucket rate and burst.  The rate paces
#: below the 30 FPS replay rate: the capacity probe shows offering the
#: full rate to a contended deployment only buys queueing delay — 22
#: FPS keeps the p95 inside the 100 ms budget while clearing the 20 FPS
#: SLO floor with margin.
CLIENT_RATE_FPS = 22.0
CLIENT_BURST = 3
