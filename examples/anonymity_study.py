"""Parameter study: how do L, d and redundancy affect anonymity?

Computes, exactly, points of the sweeps behind Figs. 7-10 so a user can pick
protocol parameters for their own threat model (expected fraction of
colluding nodes), and prints the resulting operating points.

Run with:  python examples/anonymity_study.py
"""

from repro.anonymity import exact_anonymity
from repro.experiments import format_table


def main() -> None:
    print("Exact anonymity (entropy / log N) for N=10000 nodes\n")

    rows = []
    for fraction in (0.05, 0.1, 0.2, 0.4):
        for path_length, d in ((5, 2), (8, 3), (12, 3)):
            result = exact_anonymity(
                num_nodes=10_000, path_length=path_length, d=d, fraction_malicious=fraction
            )
            rows.append(
                {
                    "fraction_malicious": fraction,
                    "L": path_length,
                    "d": d,
                    "source_anonymity": round(result.source_anonymity, 3),
                    "destination_anonymity": round(result.destination_anonymity, 3),
                }
            )
    print(format_table(rows))
    print()
    print(
        "Reading the table: longer paths buy anonymity at the cost of setup\n"
        "latency (Fig. 14); against a stronger adversary (f=0.4) a larger\n"
        "split factor helps because whole stages are harder to capture."
    )


if __name__ == "__main__":
    main()
