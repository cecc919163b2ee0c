// figure.h -- the one renderer for paper-figure series: a size x column
// table of means, then the same series drawn as an ASCII plot.
//
// print_grid_figures derives the paper's Sec. 4 figures from a finished
// grid (what `dash_lab run` prints on stderr): per (family, scenario),
// one size x healer table of per-cell means for
//
//   max_delta          beside 2*log2(n), Theorem 1's bound   (Fig. 8)
//   max_id_changes     beside 2*ln(n), the record-breaking
//                      bound of Lemma 8                       (Fig. 9(a))
//   max_messages_sent                                         (Fig. 9(b))
//   max_stretch        beside log2(n), when the grid samples
//                      stretch (stretch_every > 0)            (Fig. 10)
//
// It reads the CellResults the run already holds; nothing is parsed
// back from a BENCH document.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "exp/runner.h"
#include "exp/spec.h"
#include "util/ascii_plot.h"

namespace dash::exp {

/// Print one figure: rows = `sizes`, one column per series (two
/// decimals), then one column per reference curve, then the series
/// (not the references) as an ASCII plot when there are two or more
/// sizes. Every series and reference holds one value per size.
void print_figure(std::ostream& out, const std::vector<std::size_t>& sizes,
                  const std::vector<util::Series>& series,
                  const std::vector<util::Series>& references = {});

/// The figures of a complete grid: `results` holds every cell of
/// `spec`, as an unsharded exp::run returns them.
void print_grid_figures(std::ostream& out, const ExperimentSpec& spec,
                        const std::vector<CellResult>& results);

}  // namespace dash::exp
