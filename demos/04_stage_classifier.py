"""Stage classification from coupling-matrix features.

Builds a small synthetic labeled cohort, turns each record into a
feature vector (its estimated coupling matrix, flattened), and trains
the 300/100 ReLU network under 5-fold cross validation plus a
leave-one-institution-out holdout. A multinomial logistic model on
the same features gives the linear baseline.
"""

import numpy as np

from fracsig import classify, synth


def main():
    records = synth.synth_stage_cohort(n_records=60, n_channels=6, seed=1)
    # one feature matrix, stage vector and site list; both split kinds index them
    X = np.stack([classify.extract_features(r) for r in records])
    y = np.array([r.stage_label for r in records])
    sites = [r.institution for r in records]
    print(f"cohort: {X.shape[0]} records, {X.shape[1]} features each")

    cfg = classify.TrainConfig(epochs=300, seed=0)
    accs = [classify.fit_split(X, y, train, test, cfg)[0].accuracy
            for train, test in classify.kfold(len(y), k=5, seed=0)]
    print(f"5-fold accuracy: {np.mean(accs):.3f} "
          f"(folds: {', '.join(f'{a:.2f}' for a in accs)})")

    train, test = classify.holdout(sites, y, "site-b", seed=0)
    metrics, _ = classify.fit_split(X, y, train, test, cfg)
    print(f"holdout on site-b: accuracy {metrics.accuracy:.3f}, "
          f"macro AUROC {metrics.macro_auroc:.3f}")

    base, _ = classify.fit_split(X, y, train, test,
                                 classify.TrainConfig(epochs=500, learning_rate=0.5),
                                 model="logistic")
    print(f"logistic baseline on the same split: {base.accuracy:.3f}")

if __name__ == "__main__":
    main()
