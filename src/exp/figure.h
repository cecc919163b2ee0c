// figure.h -- the one renderer for grid figures: print_grid_figures
// derives the paper's Sec. 4 figures and the ablations' tables from a
// finished grid (what `dash_lab run` prints on stderr). Per (family,
// scenario), it prints one size x healer table of per-cell means, then
// the same series drawn as an ASCII plot, for
//
//   max_delta          beside 2*log2(n), Theorem 1's bound   (Fig. 8)
//   max_id_changes     beside 2*ln(n), the record-breaking
//                      bound of Lemma 8                       (Fig. 9(a))
//   max_messages_sent                                         (Fig. 9(b))
//   edges_added        total healing edges over the schedule
//                      (the Sec. 3.1 component-tracking
//                      ablation)
//   max_stretch        beside log2(n), when the grid samples
//                      stretch (stretch_every > 0)            (Fig. 10)
//
// The checked-in grids are examples/fig8.spec, fig10.spec and the
// three examples/ablation_*.spec. It reads the CellResults the run
// already holds; nothing is parsed back from a BENCH document.
#pragma once

#include <iosfwd>
#include <vector>

#include "exp/runner.h"
#include "exp/spec.h"

namespace dash::exp {

/// The figures of a complete grid: `results` holds every cell of
/// `spec`, as an unsharded exp::run returns them.
void print_grid_figures(std::ostream& out, const ExperimentSpec& spec,
                        const std::vector<CellResult>& results);

}  // namespace dash::exp
