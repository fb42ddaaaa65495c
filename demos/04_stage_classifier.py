"""Stage classification from coupling-matrix features.

Builds a small synthetic labeled cohort, turns each record into a
feature vector (its estimated coupling matrix, flattened), and trains
the 300/100 ReLU network under 5-fold cross validation plus a
leave-one-institution-out holdout. A multinomial logistic model on
the same features gives the linear baseline.
"""

import pathlib

import numpy as np

from fracsig import classify, synth

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)


def main():
    records = synth.synth_stage_cohort(n_records=60, n_channels=6, seed=1)
    cases = [classify.extract_features(r) for r in records]
    print(f"cohort: {len(cases)} records, "
          f"{cases[0].features.size} features each")

    cfg = classify.TrainConfig(epochs=300, seed=0)
    accs = []
    for train_idx, test_idx in classify.kfold(cases, k=5, seed=0):
        scaler = classify.MinMaxScaler()
        X_tr = scaler.fit_transform(np.array([cases[i].features for i in train_idx]))
        X_te = scaler.transform(np.array([cases[i].features for i in test_idx]))
        y_tr = np.array([cases[i].stage for i in train_idx])
        y_te = np.array([cases[i].stage for i in test_idx])
        params, _ = classify.mlp_train(X_tr, y_tr, cfg)
        metrics = classify.evaluate(y_te, classify.mlp_predict(params, X_te))
        accs.append(metrics.accuracy)
    print(f"5-fold accuracy: {np.mean(accs):.3f} "
          f"(folds: {', '.join(f'{a:.2f}' for a in accs)})")

    train, test = classify.holdout(cases, "site-b", seed=0)
    scaler = classify.MinMaxScaler()
    X_tr = scaler.fit_transform(np.array([c.features for c in train]))
    X_te = scaler.transform(np.array([c.features for c in test]))
    y_tr = np.array([c.stage for c in train])
    y_te = np.array([c.stage for c in test])
    params, _ = classify.mlp_train(X_tr, y_tr, cfg)
    metrics = classify.evaluate(y_te, classify.mlp_predict(params, X_te))
    print(f"holdout on site-b: accuracy {metrics.accuracy:.3f}, "
          f"macro AUROC {metrics.macro_auroc:.3f}")

    logit, _ = classify.logistic_train(X_tr, y_tr, lr=0.5)
    base = classify.evaluate(y_te, classify.mlp_predict(logit, X_te))
    print(f"logistic baseline on the same split: {base.accuracy:.3f}")

    classify.save_model(params, OUT / "stage_model.json", cfg)
    print(f"wrote {OUT / 'stage_model.json'}")


if __name__ == "__main__":
    main()
