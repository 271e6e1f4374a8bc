"""The run configs the acceptance suite runs and `output_digests.py` digests.

The paper's HBT run (criterion 1), the TCSPC template with its detector
jitter left as `{jitter}` (criterion 3), the detection-efficiency sweep
(criterion 4), and the SMALL_* cuts of each that run in seconds.
`SMALL_RUNS` is each small config with its `simulate-*` command and extra
arguments.  This module imports nothing, so that `output_digests.py`,
copied into an older or newer checkout, runs against that checkout's
program whatever its test modules import.
"""

PAPER_HBT_CFG = """
[run]
seed = 20240917
n_pulses = 10000000

[source]
type = dot
rep_rate_hz = 82e6
lifetime_ps = 370
g2_target = 0.24
mean_n = 0.1

[splitter]
transmission = 0.5

[detector.APD]
efficiency = 0.38
dark_rate_hz = 100
jitter_fwhm_ps = 550
dead_time_ps = 0

[detector.SSPD]
efficiency = 0.02
dark_rate_hz = 100
jitter_fwhm_ps = 170
dead_time_ps = 10000

[correlator]
bin_width_ps = 32
range_halfwidth_ps = 128064
mode = ALL_STOPS

[hbt]
start = APD
stop = SSPD

[g2]
n_side_peaks = 20
"""

TCSPC_CFG_TEMPLATE = """
[run]
seed = 31013
n_pulses = 2000000

[source]
type = dot
rep_rate_hz = 82e6
lifetime_ps = 370
p0 = 0
p1 = 1
p2 = 0

[detector.DET]
efficiency = 1.0
dark_rate_hz = 100
jitter_fwhm_ps = {jitter}
dead_time_ps = 0

[tcspc]
detector = DET
"""

DE_SWEEP_CFG = """
[run]
seed = 41041
n_pulses = 1000000

[source]
type = laser
rep_rate_hz = 100e3
mu = 10

[detector.SSPD]
efficiency = 0.01
dark_rate_hz = 500
jitter_fwhm_ps = 170
dead_time_ps = 10000

[de_sweep]
detector = SSPD
mu = 0.001,0.00316,0.01,0.0316,0.1,0.316,1,3.16,10
pulses_per_point = 1000000
"""

SMALL_HBT = PAPER_HBT_CFG.replace("n_pulses = 10000000", "n_pulses = 200000")
SMALL_TCSPC = TCSPC_CFG_TEMPLATE.format(jitter=170.0).replace(
    "n_pulses = 2000000", "n_pulses = 100000")
SMALL_DE = DE_SWEEP_CFG.replace("pulses_per_point = 1000000",
                                "pulses_per_point = 50000")

SMALL_RUNS = [
    ("simulate-hbt", SMALL_HBT, []),
    ("simulate-tcspc", SMALL_TCSPC, []),
    ("simulate-de-sweep", SMALL_DE, ["--mu", "0.01,0.1,1,10"]),
]
