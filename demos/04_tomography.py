"""Process tomography of the shipped toy pulse, with and without decay.

The channel is probed with all product preparations of
{I, Rx(pi/2), Ry(pi/2), Rx(pi)} applied to |0...0> and inverted into a
process matrix in the Pauli basis.  Without decay the channel is the
compensated unitary that scored the pulse; with decay the preparations
are evolved on the full (untruncated) space, and decoherence enters
through per-transmon relaxation and pure dephasing at the configured
T1/T2.  The table mirrors the closed- and open-system rows a gate
characterization would report, including the sensitivity to the
per-transmon level count.

CLI equivalent:
    fluxgate qpt --device demos/configs/toy_chain.json --pulses pulse.json \
        [--t1-us 20 --t2-us 20] [--levels 3] --out chi.json --report report.json
"""

from fluxgate import LindbladSpec, controlled_phase_ideal, run_qpt
from fluxgate.profiles import load_toy_pulse, toy_two_transmon_chain

device = toy_two_transmon_chain()
pulse = load_toy_pulse()
target = controlled_phase_ideal(2)

rows = []
for label, lindblad, levels in (
    ("levels=4, T1=T2=inf", None, None),
    ("levels=3, T1=T2=inf", None, 3),
    ("levels=4, T1=T2=20us", LindbladSpec(20.0, 20.0), None),
    ("levels=3, T1=T2=20us", LindbladSpec(20.0, 20.0), 3),
):
    chain = device if levels is None else device.with_levels(levels)
    result = run_qpt(chain, pulse, lindblad=lindblad, target=target)
    rows.append((label, result.report))

print(f"closed-system gate fidelity of the pulse: "
      f"{run_qpt(device, pulse, target=target).closed_system_fidelity:.6f}\n")
print(f"{'conditions':24s}  {'F_p':>8s}  {'F_g':>8s}  {'purity':>8s}")
for label, report in rows:
    print(f"{label:24s}  {report.process_fidelity:8.5f}  "
          f"{report.average_gate_fidelity:8.5f}  "
          f"{report.average_purity:8.5f}")
