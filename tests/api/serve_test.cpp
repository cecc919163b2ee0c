// serve_test.cpp -- the concurrent serving engine (Network::serve):
// epoch publication cadence, queries served from pinned snapshots
// while play() mutates on another thread, the one-shot ServeReader
// conveniences.
//
// The ServeGates tests are the serving engine's acceptance gates:
// every reader cross-checks connected() against distance() on a
// snapshot published during play, readers leave the mutation stream
// and the streamed row output byte-identical to a reader-free run, and
// a 10^5-node churn with serving and estimate-mode stretch patches
// every publish after the first two.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/network.h"
#include "api/observers.h"
#include "api/scenario.h"
#include "api/serve.h"
#include "api/sink.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dash::api {
namespace {

using dash::util::Rng;

graph::Graph make_ba(std::size_t n, std::uint64_t seed = 5) {
  Rng rng(seed);
  return graph::barabasi_albert(n, 2, rng);
}

TEST(Serve, PublishesInitialStateOnAttach) {
  Network net(make_ba(64), "dash", 1);
  ServeHandle& serve = net.serve();
  EXPECT_EQ(serve.epoch(), 1u);  // initial state, before any play()
  ServeReader reader = serve.reader();
  EXPECT_EQ(reader.epoch(), 1u);
  EXPECT_EQ(reader.pin().alive(), 64u);
}

TEST(Serve, ServeIsIdempotentPerNetwork) {
  Network net(make_ba(16), "dash", 1);
  ServeHandle& a = net.serve();
  ServeHandle& b = net.serve();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(net.serve_handle(), &a);
}

TEST(Serve, EpochAdvancesWithMutationEvents) {
  Network net(make_ba(64), "dash", 1);
  MemorySink rows;
  net.add_observer(std::make_unique<SinkObserver>(rows));
  ServeHandle& serve = net.serve();
  EXPECT_EQ(serve.epoch(), 1u);  // attach publish
  Rng rng(2);
  net.play(Scenario::parse("churn:0.3,0.1x50"), rng);
  // Cadence 1: attach + one publish per mutation event (exactly the
  // events SinkObserver saw as rows) + the unconditional finish.
  EXPECT_EQ(serve.epoch(), 1 + rows.rows().size() + 1);
  EXPECT_GT(rows.rows().size(), 0u);
}

TEST(Serve, PublishCadenceThrottlesEpochs) {
  ServeOptions every8;
  every8.publish_every = 8;
  Network coarse(make_ba(64), "dash", 1);
  coarse.serve(every8);
  Network fine(make_ba(64), "dash", 1);
  fine.serve();
  Rng r1(2), r2(2);
  const Scenario s = Scenario::parse("churn:0.3,0.1x64");
  coarse.play(s, r1);
  fine.play(s, r2);
  EXPECT_LT(coarse.serve().epoch(), fine.serve().epoch());
  // Cadence must not change the mutation outcome.
  EXPECT_EQ(coarse.graph().num_alive(), fine.graph().num_alive());
}

TEST(Serve, QueriesDuringPlayOnBackgroundThread) {
  Network net(make_ba(512), "dash", 3);
  ServeHandle& serve = net.serve();
  ServeReader reader = serve.reader();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::atomic<std::size_t> torn{0};
  std::thread t([&, reader = std::move(reader)]() mutable {
    Rng pick(11);
    while (!stop.load(std::memory_order_relaxed)) {
      ServePin pin = reader.pin();
      const auto& alive = pin.snapshot().view().alive_nodes();
      if (alive.size() < 2) continue;
      const graph::NodeId u =
          alive[static_cast<std::size_t>(pick.below(alive.size()))];
      const graph::NodeId v =
          alive[static_cast<std::size_t>(pick.below(alive.size()))];
      if (pin.connected(u, v) != pin.distance(u, v).has_value()) {
        torn.fetch_add(1);
      }
      reads.fetch_add(1);
    }
  });

  Rng rng(4);
  net.play(Scenario::parse("churn:0.3,0.1x300"), rng);
  // The store keeps serving after play() (finish published the final
  // state): wait until the reader has demonstrably made progress
  // before stopping it, so the assertion is robust under CI load even
  // when play() outruns thread startup.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reads.load() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(reads.load(), 10u);
  // finish() published the final state: a fresh reader sees the
  // network exactly as the mutation side left it.
  ServeReader after = serve.reader();
  EXPECT_EQ(after.pin().alive(), net.graph().num_alive());
}

TEST(Serve, OneShotConveniencesMatchPinnedQueries) {
  Network net(make_ba(64), "dash", 1);
  ServeHandle& serve = net.serve();
  ServeReader reader = serve.reader();
  EXPECT_EQ(reader.largest_component(), 64u);
  EXPECT_EQ(reader.component_count(), 1u);
  EXPECT_TRUE(reader.connected(0, 63));
  EXPECT_TRUE(reader.distance(0, 63).has_value());
}

TEST(Serve, ExplicitPublishBetweenEvents) {
  Network net(make_ba(32), "dash", 1);
  ServeHandle& serve = net.serve();
  const std::uint64_t e = serve.epoch();
  EXPECT_EQ(serve.publish(), e + 1);
  EXPECT_EQ(serve.epoch(), e + 1);
}

TEST(Serve, NestedParallelForOverServeReads) {
  // The serve read path from inside pool tasks -- including a nested
  // parallel_for whose caller-runner participates -- must stay safe:
  // make_reader() is any-thread, pins are per-reader, and nothing on
  // the read path touches pool state.
  Network net(make_ba(256), "dash", 7);
  ServeHandle& serve = net.serve();
  Rng rng(8);
  net.play(Scenario::parse("churn:0.3,0.1x100"), rng);

  util::ThreadPool pool(4);
  std::atomic<std::size_t> torn{0};
  pool.parallel_for(8, [&](std::size_t outer) {
    pool.parallel_for(4, [&](std::size_t inner) {
      ServeReader reader = serve.reader();
      ServePin pin = reader.pin();
      const auto& alive = pin.snapshot().view().alive_nodes();
      if (alive.size() < 2) return;
      Rng pick(100 + outer * 8 + inner);
      for (int q = 0; q < 20; ++q) {
        const graph::NodeId u =
            alive[static_cast<std::size_t>(pick.below(alive.size()))];
        const graph::NodeId v =
            alive[static_cast<std::size_t>(pick.below(alive.size()))];
        if (pin.connected(u, v) != pin.distance(u, v).has_value()) {
          torn.fetch_add(1);
        }
      }
    });
  });
  EXPECT_EQ(torn.load(), 0u);
}

// ---- Serving gates ---------------------------------------------------------

/// Holds the mutation thread at the first event that published a
/// snapshot until every reader has cross-checked a read pinned at that
/// epoch or later. Without it a reader that gets no time slice before
/// a short play ends checks nothing, and its zero torn reads certify
/// nothing.
class ReaderBarrier final : public Observer {
 public:
  ReaderBarrier(const ServeHandle& serve, std::uint64_t pre_play_epoch,
                const std::atomic<std::size_t>& caught_up,
                std::size_t readers)
      : serve_(serve),
        pre_play_epoch_(pre_play_epoch),
        caught_up_(caught_up),
        readers_(readers) {}

  std::string name() const override { return "reader-barrier"; }
  void on_round_end(const Network&, const RoundEvent&) override { wait(); }
  void on_join(const Network&, const JoinEvent&) override { wait(); }
  void on_finish(const Network&, Metrics&) override { wait(); }

 private:
  void wait() {
    if (released_ || serve_.epoch() == pre_play_epoch_) return;
    released_ = true;
    while (caught_up_.load(std::memory_order_acquire) < readers_) {
      std::this_thread::yield();
    }
  }

  const ServeHandle& serve_;
  const std::uint64_t pre_play_epoch_;
  const std::atomic<std::size_t>& caught_up_;
  const std::size_t readers_;
  bool released_ = false;
};

struct ReaderTally {
  /// connected() vs distance() checks of a snapshot published during
  /// play that finished before play() returned.
  std::size_t checks_in_play = 0;
  std::size_t torn = 0;  ///< checks where the two disagreed
};

struct ServedRun {
  std::string metrics_json;  ///< the run's Metrics as the BENCH document
  std::string rows_csv;      ///< per-round rows (CsvStreamSink)
  std::vector<ReaderTally> readers;
};

/// One deterministic churn+heal run of `scenario` on BA(n), its rows
/// streamed by a CsvStreamSink. With `readers == 0` it is the
/// reference: no serve(). Otherwise the network serves and `readers`
/// threads cross-check every read on a fresh pin until play() has
/// returned. Readers start late, as if descheduled, so only the
/// ReaderBarrier puts their checks inside play.
ServedRun run_served(std::size_t n, const std::string& scenario,
                     std::size_t readers) {
  Network net(make_ba(n, 21), "dash", 21);
  std::ostringstream rows;
  CsvStreamSink csv(rows);
  net.add_observer(std::make_unique<SinkObserver>(csv));

  ServedRun run;
  run.readers.resize(readers);
  std::vector<std::thread> threads;
  std::atomic<bool> start{false};
  std::atomic<bool> play_returned{false};
  std::atomic<std::size_t> caught_up{0};
  if (readers > 0) {
    ServeHandle& serve = net.serve();
    const std::uint64_t pre_play_epoch = serve.epoch();
    net.add_observer(std::make_unique<ReaderBarrier>(serve, pre_play_epoch,
                                                     caught_up, readers));
    for (std::size_t r = 0; r < readers; ++r) {
      threads.emplace_back([&, r, pre_play_epoch,
                            reader = serve.reader()]() mutable {
        ReaderTally& tally = run.readers[r];
        Rng pick(100 + r);
        while (!start.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        bool announced = false;
        while (true) {
          const bool finished = play_returned.load(std::memory_order_acquire);
          ServePin pin = reader.pin();
          const auto& alive = pin.snapshot().view().alive_nodes();
          if (alive.size() >= 2) {
            const graph::NodeId u =
                alive[static_cast<std::size_t>(pick.below(alive.size()))];
            const graph::NodeId v =
                alive[static_cast<std::size_t>(pick.below(alive.size()))];
            if (pin.connected(u, v) != pin.distance(u, v).has_value()) {
              ++tally.torn;
            }
            if (pin.epoch() > pre_play_epoch &&
                !play_returned.load(std::memory_order_acquire)) {
              ++tally.checks_in_play;
            }
            if (!announced && pin.epoch() > pre_play_epoch) {
              announced = true;
              caught_up.fetch_add(1, std::memory_order_release);
            }
          }
          if (finished) break;
        }
      });
    }
  }

  Rng play_rng(22);
  start.store(true, std::memory_order_release);
  Metrics m;
  try {
    m = net.play(Scenario::parse(scenario), play_rng);
  } catch (...) {
    play_returned.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    throw;
  }
  play_returned.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  csv.flush();

  std::ostringstream doc;
  JsonSummarySink summary(doc);
  summary.on_run(0, m);
  summary.flush();
  run.metrics_json = doc.str();
  run.rows_csv = rows.str();
  return run;
}

TEST(ServeGates, EveryReaderCrossChecksDuringPlay) {
  // A play of a few hundred microseconds, shorter than the readers'
  // late start: every reader must still cross-check a snapshot the
  // play published before play() returns, and none may see a torn one.
  for (const std::size_t readers : {1u, 3u}) {
    const ServedRun run = run_served(128, "churn:0.3,0.1x40", readers);
    ASSERT_EQ(run.readers.size(), readers);
    for (std::size_t r = 0; r < readers; ++r) {
      const ReaderTally& tally = run.readers[r];
      EXPECT_GE(tally.checks_in_play, 1u)
          << "unchecked round: reader " << r << " of " << readers
          << " cross-checked no read during play";
      EXPECT_EQ(tally.torn, 0u) << "reader " << r << " of " << readers;
    }
  }
}

TEST(ServeGates, ReadersDoNotPerturbTheMutationStream) {
  const std::string scenario = "churn:0.3,0.1x300";
  const ServedRun reference = run_served(512, scenario, 0);
  ASSERT_NE(reference.metrics_json.find("\"deletions\""), std::string::npos);
  for (const std::size_t readers : {1u, 4u}) {
    const ServedRun run = run_served(512, scenario, readers);
    EXPECT_EQ(run.metrics_json, reference.metrics_json)
        << readers << " readers changed the run's Metrics";
    for (const ReaderTally& tally : run.readers) {
      EXPECT_GE(tally.checks_in_play, 1u);
      EXPECT_EQ(tally.torn, 0u);
    }
  }
}

TEST(ServeGates, AsyncRowsUnderReadersMatchSynchronousRows) {
  const std::string scenario = "churn:0.3,0.1x300";
  const ServedRun reference = run_served(512, scenario, 0);
  // A header plus one line per mutation event (130 at this seed).
  ASSERT_GT(std::count(reference.rows_csv.begin(), reference.rows_csv.end(),
                       '\n'),
            100);
  for (const std::size_t readers : {1u, 4u}) {
    const ServedRun run = run_served(512, scenario, readers);
    EXPECT_EQ(run.rows_csv, reference.rows_csv)
        << "rows under " << readers << " readers differ";
    for (const ReaderTally& tally : run.readers) {
      EXPECT_GE(tally.checks_in_play, 1u);
    }
  }
}

TEST(ServeGates, HundredThousandNodesPatchEveryPublishAfterTheFirstTwo) {
  // The 10^5-node serving path: deletion churn with a publish after
  // every event and estimate-mode stretch sampling riding along. Only
  // the first two publishes (one per double-buffered snapshot) may pay
  // a full CSR rebuild. The ctest TIMEOUT on this group catches an
  // O(n^2) regression that keeps the counters right.
  const std::size_t n = 100000;
  Rng graph_rng(97);
  Network net(graph::barabasi_albert(n, 2, graph_rng), "dash", 97);
  ServeOptions sopts;
  sopts.publish_every = 1;
  ServeHandle& serve = net.serve(sopts);

  StretchObserverOptions stretch_opts;
  stretch_opts.sample_every = 64;
  stretch_opts.estimate = true;
  stretch_opts.landmarks = 16;
  stretch_opts.pairs = 256;
  auto observer = std::make_unique<StretchObserver>(stretch_opts);
  const StretchObserver& stretch = *observer;
  net.add_observer(std::move(observer));

  Rng play_rng(98);
  const Metrics m = net.play(Scenario::parse("strike:randomx200"), play_rng);

  EXPECT_EQ(m.deletions, 200u);
  EXPECT_TRUE(m.stayed_connected);
  EXPECT_LE(m.max_delta, 2.0 * std::log2(static_cast<double>(n)));
  // Attach + one per deletion + finish.
  EXPECT_EQ(serve.epoch(), 202u);
  EXPECT_EQ(serve.store().full_publishes(), 2u);
  EXPECT_EQ(serve.store().patched_publishes(), 200u);
  ASSERT_TRUE(stretch.estimating());
  EXPECT_TRUE(std::isfinite(stretch.last_estimate().max_upper));
  EXPECT_GE(stretch.last_estimate().max_upper, 1.0);
  EXPECT_EQ(stretch.last_sample(), stretch.last_estimate().max_upper);
}

}  // namespace
}  // namespace dash::api
