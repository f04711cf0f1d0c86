"""The scenario harness end to end: manifest -> replay -> digest gate.

A scenario manifest (``repro.scenarios``) pins a whole workload fixture
declaratively — generator seed and scale table, pattern sample seeds,
the query/mutation stream shape, and the engine/backend matrix — so a
run is a pure function of the manifest.  The runner replays it and
folds what it saw into one case report:

* the **observation digest**, a SHA-256 over the canonical result
  stream (results only, never timings), gated against the committed
  ``EXPECTED_DIGESTS`` pin — the same digest on every engine, or the
  engines' output-identity contract is broken;
* cache behavior, execution counts and — for distributed scenarios —
  exact bus traffic.

Reports carry no timings: ``perfbench/`` is the latency benchmark.
This example runs one scenario across all three engines, prints the
per-case table and shows the digest agreeing everywhere::

    python examples/scenario_run.py
"""

from repro.scenarios import (
    EXPECTED_DIGESTS,
    ScenarioRunner,
    get_scenario,
    render_cases,
)


def main() -> None:
    manifest = get_scenario("tenancy-mixed")
    print(f"scenario: {manifest.name} — {manifest.title}")
    print(f"engines: {', '.join(manifest.engines)}; "
          f"algorithms: {', '.join(manifest.algorithms)}; "
          f"mutations: {manifest.mutation_segments} segment(s) of "
          f"{manifest.mutation_count} edge insertions")

    runner = ScenarioRunner(manifest)
    cases = runner.run("smoke")
    print()
    print(render_cases(cases))

    ran = [case for case in cases if case.skipped is None]
    digests = {case.digest for case in ran}
    pinned = EXPECTED_DIGESTS[(manifest.name, "smoke")]
    print()
    print(f"one digest across {len(ran)} engine(s): {len(digests) == 1}")
    print(f"digest matches the committed pin: "
          f"{digests == {pinned}}")


if __name__ == "__main__":
    main()
