// snapshot_store_test.cpp -- epoch publication, pin-based reclamation,
// buffer recycling, labels copied from the connectivity tracker, and a
// concurrent publish/read stress with the label-vs-BFS torn-read
// cross-check.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "../test_helpers.h"
#include "graph/dynamic_connectivity.h"
#include "graph/generators.h"
#include "graph/snapshot_store.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace dash::graph {
namespace {

using dash::util::Rng;

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

/// A graph and the connectivity tracker that follows it, mutated in
/// step the way api::Network keeps them; publish() hands both over.
struct Tracked {
  explicit Tracked(Graph graph) : g(std::move(graph)), dc(g) {}
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;

  void delete_node(NodeId v) {
    dc.node_removed(v, g.delete_node(v), /*may_split=*/true);
  }
  NodeId add_node() {
    const NodeId v = g.add_node();
    dc.node_added(v);
    return v;
  }
  void add_edge(NodeId a, NodeId b) {
    if (g.add_edge(a, b)) dc.edge_added(a, b);
  }
  std::uint64_t publish(SnapshotStore& store) const {
    return store.publish(g, dc);
  }

  Graph g;
  DynamicConnectivity dc;
};

TEST(SnapshotStore, EpochsAdvancePerPublish) {
  const Tracked t(path_graph(8));
  SnapshotStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(t.publish(store), 1u);
  EXPECT_EQ(t.publish(store), 2u);
  EXPECT_EQ(store.epoch(), 2u);
}

TEST(SnapshotStore, SnapshotAnswersFromPublishTimeState) {
  Tracked t(path_graph(6));
  SnapshotStore store;
  t.publish(store);

  SnapshotStore::Reader reader = store.make_reader();
  TraversalScratch scratch;
  {
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_EQ(pin->epoch(), 1u);
    EXPECT_EQ(pin->num_alive(), 6u);
    EXPECT_TRUE(pin->connected(0, 5));
    EXPECT_EQ(pin->distance(0, 5, scratch), std::uint32_t{5});

    // Mutate after publish: the pinned snapshot must not notice.
    t.delete_node(3);
    EXPECT_TRUE(pin->connected(0, 5));
    EXPECT_TRUE(pin->alive(3));
  }

  // The next publish sees the cut.
  t.publish(store);
  SnapshotStore::Pin fresh = reader.pin();
  EXPECT_EQ(fresh->epoch(), 2u);
  EXPECT_FALSE(fresh->connected(0, 5));
  EXPECT_FALSE(fresh->alive(3));
  EXPECT_FALSE(fresh->distance(0, 5, scratch).has_value());
  EXPECT_EQ(fresh->component_count(), 2u);
  EXPECT_EQ(fresh->largest_component(), 3u);
}

TEST(SnapshotStoreDeathTest, PublishRefusesATrackerOfAnotherGraph) {
  const Tracked small(path_graph(4));
  const Graph other = path_graph(6);
  SnapshotStore store;
  EXPECT_DEATH(store.publish(other, small.dc), "tracker");
}

TEST(SnapshotStore, PinBlocksReclamationUntilReleased) {
  const Tracked t(path_graph(4));
  SnapshotStore store;
  t.publish(store);

  SnapshotStore::Reader reader = store.make_reader();
  {
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_EQ(pin->epoch(), 1u);
    t.publish(store);  // retires epoch 1, but the pin protects it
    EXPECT_EQ(store.retired_pending(), 1u);
    EXPECT_EQ(store.live_snapshots(), 2u);
    EXPECT_EQ(pin->epoch(), 1u);  // still readable
  }
  // Unpinned now; the next publish reclaims it.
  t.publish(store);
  EXPECT_EQ(store.retired_pending(), 0u);
  EXPECT_EQ(store.live_snapshots(), 1u);
}

TEST(SnapshotStore, FreedSnapshotsAreRecycledNotReallocated) {
  const Tracked t(path_graph(16));
  SnapshotStore store;
  t.publish(store);
  // No pins: every publish retires the predecessor and immediately
  // frees it, so the allocated set stays at one live snapshot (plus
  // the recycled buffer the next publish reuses).
  for (int i = 0; i < 50; ++i) t.publish(store);
  EXPECT_EQ(store.live_snapshots(), 1u);
  EXPECT_EQ(store.retired_pending(), 0u);
}

TEST(SnapshotStore, ReaderSlotsAreRecycled) {
  const Tracked t(path_graph(4));
  SnapshotStore store;
  t.publish(store);
  { SnapshotStore::Reader r = store.make_reader(); }
  { SnapshotStore::Reader r = store.make_reader(); }
  { SnapshotStore::Reader r = store.make_reader(); }
  EXPECT_EQ(store.reader_slots(), 1u);
  SnapshotStore::Reader a = store.make_reader();
  SnapshotStore::Reader b = store.make_reader();
  EXPECT_EQ(store.reader_slots(), 2u);
}

TEST(SnapshotStore, ConcurrentPublishAndReadStress) {
  // One writer republishing a mutating graph, several readers pinning
  // and cross-checking label connectivity against BFS reachability on
  // every pin. Any disagreement within one pin is a torn read.
  Rng rng(7);
  Tracked t(barabasi_albert(256, 2, rng));
  SnapshotStore store;
  t.publish(store);

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    SnapshotStore::Reader reader = store.make_reader();
    threads.emplace_back(
        [&, r, reader = std::move(reader)]() mutable {
          TraversalScratch scratch;
          Rng pick(1000 + static_cast<std::uint64_t>(r));
          while (!stop.load(std::memory_order_relaxed)) {
            SnapshotStore::Pin pin = reader.pin();
            const auto& alive = pin->view().alive_nodes();
            if (alive.size() < 2) continue;
            const NodeId u =
                alive[static_cast<std::size_t>(pick.below(alive.size()))];
            const NodeId v =
                alive[static_cast<std::size_t>(pick.below(alive.size()))];
            const bool conn = pin->connected(u, v);
            const bool reach = pin->distance(u, v, scratch).has_value();
            if (conn != reach) torn.fetch_add(1);
          }
        });
  }

  Rng mut(99);
  for (int i = 0; i < 400; ++i) {
    const NodeId victim = static_cast<NodeId>(mut.below(t.g.num_nodes()));
    if (t.g.alive(victim) && t.g.num_alive() > 8) {
      t.delete_node(victim);
    } else {
      const NodeId fresh = t.add_node();
      const NodeId anchor = static_cast<NodeId>(mut.below(fresh));
      if (t.g.alive(anchor)) t.add_edge(fresh, anchor);
    }
    t.publish(store);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(store.epoch(), 401u);
  // All pins released: one more publish sweeps the retired list.
  t.publish(store);
  EXPECT_EQ(store.retired_pending(), 0u);
}

TEST(SnapshotStore, RecycledSnapshotsPatchForwardNotRebuild) {
  // With no pins held, publishes ping-pong between two buffers; each
  // recycled buffer carries the CSR of its last epoch and only has to
  // patch two epochs' worth of touched vertices forward, while its
  // labels are copied whole from the tracker.
  Rng rng(11);
  Tracked t(barabasi_albert(512, 2, rng));
  SnapshotStore store;
  t.publish(store);  // first publish on a fresh buffer: full rebuild
  EXPECT_EQ(store.full_publishes(), 1u);

  SnapshotStore::Reader reader = store.make_reader();
  TraversalScratch scratch;
  TraversalScratch ref_scratch;
  std::vector<NodeId> alive = t.g.alive_nodes();
  for (int i = 0; i < 40; ++i) {
    const std::size_t at = static_cast<std::size_t>(rng.below(alive.size()));
    t.delete_node(alive[at]);
    alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(at));
    t.publish(store);

    // The published snapshot answers from the patched CSR; cross-check
    // a pair against a full single-source BFS on the live graph (a
    // different kernel than the bidirectional point query).
    SnapshotStore::Pin pin = reader.pin();
    EXPECT_EQ(pin->num_alive(), alive.size());
    // Its labels, count and largest size are the tracker's, flushed at
    // publish, and induce the BFS partition of the patched view.
    EXPECT_EQ(pin->labels(), t.dc.labels());
    Components truth;
    connected_components(pin->view(), scratch, truth);
    EXPECT_TRUE(dash::testing::same_partition(pin->labels(), truth));
    EXPECT_EQ(pin->component_count(), truth.count());
    EXPECT_EQ(pin->largest_component(), truth.largest());
    const NodeId u = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const NodeId v = alive[static_cast<std::size_t>(rng.below(alive.size()))];
    const auto via_snapshot = pin->distance(u, v, scratch);
    bfs_distances(t.g.flat_view(), u, ref_scratch);
    const std::uint32_t direct = ref_scratch.distance(v);
    if (direct == kUnreachable) {
      EXPECT_FALSE(via_snapshot.has_value());
    } else {
      ASSERT_TRUE(via_snapshot.has_value());
      EXPECT_EQ(*via_snapshot, direct);
    }
  }
  // The second publish warms the second buffer (full); from the third
  // on every publish patches a recycled snapshot forward.
  EXPECT_EQ(store.full_publishes(), 2u);
  EXPECT_EQ(store.patched_publishes(), 39u);
  EXPECT_GT(store.touched_vertices(), 0u);
}

}  // namespace
}  // namespace dash::graph
