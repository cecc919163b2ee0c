// test_helpers.h -- shared machinery for schedule-level tests: run an
// attack/heal schedule on the api::Network engine with the full
// invariant battery plugged in, failing loudly on any violation; and
// compare a component labelling with a BFS reference partition.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/api.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::testing {

struct RunSpec {
  std::string attack = "neighborofmax";
  std::string healer = "dash";
  std::uint64_t seed = 12345;
  bool check_rem = false;   // DASH-only Lemma 4 bound
  bool track_stretch = false;
  std::size_t max_deletions = std::numeric_limits<std::size_t>::max();
};

/// Run a full schedule on `g` with the invariant observer attached;
/// EXPECT no violation and that the network stayed connected.
inline api::Metrics run_checked(graph::Graph g, const RunSpec& spec) {
  dash::util::Rng rng(spec.seed);
  api::Network net(std::move(g), core::make_strategy(spec.healer), rng);

  api::InvariantOptions inv_opts;
  inv_opts.check_rem_bound = spec.check_rem;
  inv_opts.check_delta_bound = (spec.healer == "dash");  // Theorem 1 is DASH's
  net.add_observer(std::make_unique<api::InvariantObserver>(inv_opts));
  if (spec.track_stretch) {
    net.add_observer(std::make_unique<api::StretchObserver>());
  }

  auto attacker = attack::make_attack(spec.attack, spec.seed);
  api::RunOptions opts;
  opts.max_deletions = spec.max_deletions;
  const api::Metrics result = net.run(*attacker, opts);

  EXPECT_TRUE(result.violation.empty()) << result.violation;
  EXPECT_TRUE(result.stayed_connected)
      << spec.healer << " lost connectivity under " << spec.attack;
  return result;
}

/// `labels` (per node id; kInvalidComponent for dead nodes; any other
/// values, compared only for equality) must induce exactly the
/// partition of the BFS labelling `truth`: dead where it is dead, one
/// label per BFS component, and no label shared by two components.
inline ::testing::AssertionResult same_partition(
    const std::vector<std::uint32_t>& labels,
    const graph::Components& truth) {
  if (labels.size() != truth.label.size()) {
    return ::testing::AssertionFailure()
           << labels.size() << " labels for " << truth.label.size()
           << " node ids";
  }
  std::vector<std::uint32_t> label_of(truth.count(), graph::kInvalidComponent);
  std::unordered_map<std::uint32_t, std::uint32_t> component_of;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    const std::uint32_t want = truth.label[v];
    const std::uint32_t got = labels[v];
    if (want == graph::kInvalidComponent || got == graph::kInvalidComponent) {
      if (want != got) {
        const bool dead = want == graph::kInvalidComponent;
        return ::testing::AssertionFailure()
               << "node " << v << " is " << (dead ? "dead" : "alive")
               << " but " << (dead ? "labelled" : "unlabelled");
      }
      continue;
    }
    if (label_of[want] == graph::kInvalidComponent) label_of[want] = got;
    if (label_of[want] != got) {
      return ::testing::AssertionFailure()
             << "node " << v << " splits from its BFS component";
    }
    const auto [it, fresh] = component_of.emplace(got, want);
    if (!fresh && it->second != want) {
      return ::testing::AssertionFailure()
             << "node " << v << " shares a label with another component";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dash::testing
