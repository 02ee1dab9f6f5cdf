"""Run each desk-scale lemma check named in TRIALS once at its modest trial
count and print the reports.  The acceptance suite runs the same checks at
their mandated sizes; the CLI exposes them as `dfipp check-lemma <id>`.

Run:  python3 demos/lemma_checks.py
"""

from dfipp.experiments import cmd_check_lemma

TRIALS = {
    "epsilons": 100,
    "dpl_product": 50,
    "linSub": 100,
    "grainer-claim": 1000,
    "grainer-distance": 300,
    "fold_dispersed": 500,
    "tvineq": 500,
    "rr20_min_dist": 100,
    "appendix-a": 200,
}

# the demo's own keys, so a suite added to LEMMA_CHECKS leaves this output unchanged
for lemma, trials in TRIALS.items():
    report = cmd_check_lemma(lemma, trials, seed=0)
    status = report.pop("status")
    detail = {k: v for k, v in report.items()
              if k in ("checked", "vacuous", "violations", "frequency", "bound",
                       "t", "instances", "failures", "draws")}
    print(f"{status.upper():5s} {lemma:18s} {detail}")
