"""Analyze the bundled choice-experiment cell counts: preference weights,
binomial and McNemar tests, and flags for published numbers that no
implemented variant reproduces.

    python3 demos/06_statistics.py
"""

from bornchoice import stats

# The bundled table has one row of cells per scenario, labelled with the
# scenario's name: how many of the 200 participants gave each of the four
# answer combinations.
rows = stats.load_counts_csv(stats.BUNDLED_COUNTS)

reports = []
for label, counts in rows:
    report = stats.analyze(counts, scenario=label)
    reports.append(report)
    print(report.summary())
    print()

# The headline p-value is the plain normal approximation; the exact
# binomial and the McNemar variants are carried alongside so a published
# number can be matched against every candidate recipe.
machina = reports[1]
print("machina5051 question 1 variants:", {
    k: f"{v:.4g}" for k, v in machina.question_variants["q1"].items()
})
print("matched published values:", machina.matched)
print("flagged published values:", [(f.quantity, f.published) for f in machina.flags])

# Everything flattens to CSV rows for spreadsheet work.
print()
print("CSV columns:", ", ".join(stats.report_csv_rows(reports)[0].keys()))
