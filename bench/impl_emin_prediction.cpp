/**
 * @file
 * §II-B "Predicting and learning": can a counter-driven model replace
 * the brute-force Emin search?
 *
 * For every benchmark, the recursive-least-squares predictor is
 * trained online (each sample's true Emin arrives one sample later,
 * as a background brute-force evaluation would provide it) and its
 * predictions are scored on (a) relative Emin error and (b) the
 * budget-conformance consequences of using predicted inefficiency for
 * the budget filter at I=1.3.
 */

#include <cmath>
#include <iostream>

#include "common/stats.hh"
#include "common/table.hh"
#include "repro/analyses.hh"
#include "repro/suite.hh"
#include "runtime/emin_predictor.hh"

using namespace mcdvfs;

int
main()
{
    const double budget = 1.3;

    ReproSuite suite;
    suite.characterize(ReproSuite::benchmarkNames());
    Table table({"benchmark", "mean |err| %", "p95 |err| %",
                 "violations %", "over-conservative %"});
    table.setTitle("online Emin prediction vs brute force (I=1.3)");

    for (const std::string &name : ReproSuite::benchmarkNames()) {
        const MeasuredGrid &grid = suite.grid(name);
        GridAnalyses a(grid);

        EminPredictor predictor;
        Distribution errors;
        std::size_t violations = 0;
        std::size_t conservative = 0;
        std::size_t scored = 0;

        for (std::size_t s = 0; s < grid.sampleCount(); ++s) {
            if (predictor.trained()) {
                const Joules predicted = predictor.predict(grid.profile(s));
                const Joules truth = grid.sampleEmin(s);
                errors.add(std::abs(predicted - truth) / truth * 100.0);

                // What the predicted budget filter would do to the
                // sample's true optimal choice.
                const OptimalChoice choice =
                    a.finder.optimalForSample(s, budget);
                const Joules energy =
                    grid.cell(s, choice.settingIndex).energy();
                const double predicted_i = energy / predicted;
                const double true_i = energy / truth;
                ++scored;
                if (predicted_i <= budget && true_i > budget + 1e-9)
                    ++violations;  // filter admits an over-budget point
                if (predicted_i > budget && true_i <= budget)
                    ++conservative;  // filter rejects a valid point
            }
            // One-sample-delayed training signal.
            predictor.observe(grid.profile(s), grid.sampleEmin(s));
        }

        table.addRow(
            {name, Table::num(errors.mean(), 1),
             Table::num(errors.quantile(0.95), 1),
             Table::num(100.0 * static_cast<double>(violations) /
                            static_cast<double>(scored),
                        1),
             Table::num(100.0 * static_cast<double>(conservative) /
                            static_cast<double>(scored),
                        1)});
    }
    table.print(std::cout);
    std::cout << "\n(brute force evaluates all 70 settings per sample; "
                 "the predictor needs one model evaluation)\n";
    return 0;
}
