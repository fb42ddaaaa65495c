"""Early detection from sliding-window order estimates.

Each synthetic subject has a pre/post pair of segments; infected
subjects shift their fractional order after the split point. The
pipeline estimates the order in sliding windows, summarizes the
pre-vs-post distributions by the KL divergence KL(pre || post), and
classifies each subject leave-one-out. Sweeping an artificial offset
of the assumed split point shows errors are minimized at the true
split, which is the sanity check that the feature sees the change
and not an artifact of the windowing.
"""

import pathlib

from fracsig import synth, viral

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def main():
    cases = synth.synth_viral_cohort(
        n_subjects=10, n_infected=6, seed=5,
        side_samples=6000, alpha_shift=0.3,
    )
    spec = viral.WindowSpec(window_len=3000, stride=300)

    result = viral.classify_loo(cases, spec)
    print("subject  infected  predicted  kl-feature")
    for sid, case, pred, feat in zip(
        result.subject_ids, cases, result.predictions, result.features
    ):
        print(f"{sid:8s} {str(case.infected):8s} {str(bool(pred)):9s} "
              f"{feat:10.3f}")
    print(f"type I errors: {result.type_one}, "
          f"type II errors: {result.type_two}")

    shifts = [-1500, -750, 0, 750, 1500]
    rows = ["shift,type_one,type_two"]
    for shift, t1, t2 in viral.shift_sweep(cases, shifts, spec):
        rows.append(f"{shift},{t1},{t2}")
        print(f"assumed split offset {shift:6d}: {t1} type I, {t2} type II")
    (OUT / "shift_sweep.csv").write_text("\n".join(rows) + "\n")
    print(f"wrote {OUT / 'shift_sweep.csv'}")


if __name__ == "__main__":
    main()
