// Crash/resume contract of the streaming execution layer: a grid killed by
// the deterministic fault injector after k cells and then resumed from its
// checkpoint must produce a byte-identical JSON document to the same grid
// run uninterrupted — for any thread count and any kill point. This holds
// because per-cell and per-instance seeds derive from the grid key and the
// pair index, never from execution order, and because stable-timing mode
// zeroes the wall-clock fields that legitimately differ between runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "crew/common/thread_pool.h"
#include "crew/data/generator.h"
#include "crew/eval/runner.h"
#include "crew/eval/sinks.h"
#include "crew/eval/streaming.h"
#include "crew/explain/lime.h"
#include "crew/explain/random_explainer.h"
#include "crew/model/trainer.h"

namespace crew {
namespace {

class ScopedScoringThreads {
 public:
  explicit ScopedScoringThreads(int n) { SetScoringThreads(n); }
  ~ScopedScoringThreads() { SetScoringThreads(0); }
};

// Every run in this file compares serialized results byte for byte, so
// wall-clock fields are zeroed exactly like the bench --stable-timing flag
// does.
class ScopedStableTiming {
 public:
  ScopedStableTiming() { SetStableTiming(true); }
  ~ScopedStableTiming() { SetStableTiming(false); }
};

BenchmarkEntry TinyEntry(const std::string& name, uint64_t seed) {
  BenchmarkEntry entry;
  entry.name = name;
  entry.config.num_matches = 30;
  entry.config.num_nonmatches = 30;
  entry.config.seed = seed;
  return entry;
}

// 2 datasets x 2 variants = a 4-cell grid, small enough to rerun many
// times but wide enough that kill points 1..3 leave a genuinely partial
// checkpoint. With `prepared` set, the suite factory counts its calls on a
// real pipeline: Run() makes exactly one per dataset it prepares (the
// runner's own name listing passes an empty pipeline).
ExperimentRunner MakeRunner(int* prepared = nullptr) {
  ExperimentSpec spec;
  spec.name = "resume_grid";
  spec.datasets = {TinyEntry("tiny-a", 3), TinyEntry("tiny-b", 4)};
  spec.matcher = MatcherKind::kLogistic;
  spec.instances_per_dataset = 2;
  spec.seed = 7;
  spec.suite = [prepared](const TrainedPipeline& pipeline) {
    if (prepared != nullptr && pipeline.matcher != nullptr) ++*prepared;
    std::vector<SuiteEntry> suite;
    LimeConfig lime;
    lime.perturbation.num_samples = 16;
    suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
    suite.push_back({"random", std::make_unique<RandomExplainer>()});
    return suite;
  };
  return ExperimentRunner(std::move(spec));
}

std::string CheckpointPath(const std::string& tag) {
  return ::testing::TempDir() + "/resume_" + tag + ".jsonl";
}

TEST(ResumeTest, KilledThenResumedGridIsByteIdentical) {
  ScopedStableTiming stable;
  constexpr int kGridCells = 4;
  for (int threads : {1, 2, 4}) {
    ScopedScoringThreads scoped(threads);
    auto clean = MakeRunner().Run();
    ASSERT_TRUE(clean.ok()) << "threads=" << threads;
    // With include_metrics the document also carries every cell's
    // registry delta, which must survive the checkpoint unchanged too.
    const std::string clean_json = ExperimentResultToJson(*clean);
    clean->include_metrics = true;
    const std::string clean_metrics_json = ExperimentResultToJson(*clean);

    for (int kill_after : {0, 1, 2, kGridCells - 1}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " kill_after=" + std::to_string(kill_after));
      const std::string path = CheckpointPath(
          std::to_string(threads) + "_" + std::to_string(kill_after));
      std::remove(path.c_str());

      // Phase 1: run with the fault armed; the run must fail, leaving
      // exactly `kill_after` durable cells behind.
      {
        CheckpointStore checkpoint(path);
        ASSERT_TRUE(checkpoint.Load().ok());
        FaultInjector fault;
        fault.ArmAfterCells(kill_after);
        RunHooks hooks;
        hooks.checkpoint = &checkpoint;
        hooks.fault = &fault;
        auto crashed = MakeRunner().Run(hooks);
        ASSERT_FALSE(crashed.ok());
        EXPECT_NE(crashed.status().ToString().find("fault injected"),
                  std::string::npos);
        EXPECT_EQ(checkpoint.done_cells(), kill_after);
      }

      // Phase 2: resume from the checkpoint; restored cells must slot in
      // bit-identically next to the freshly computed remainder.
      CheckpointStore checkpoint(path);
      ASSERT_TRUE(checkpoint.Load().ok());
      EXPECT_EQ(checkpoint.done_cells(), kill_after);
      RunHooks hooks;
      hooks.checkpoint = &checkpoint;
      auto resumed = MakeRunner().Run(hooks);
      ASSERT_TRUE(resumed.ok());
      EXPECT_EQ(checkpoint.done_cells(), kGridCells);
      EXPECT_EQ(ExperimentResultToJson(*resumed), clean_json);
      resumed->include_metrics = true;
      EXPECT_EQ(ExperimentResultToJson(*resumed), clean_metrics_json);
      std::remove(path.c_str());
    }
  }
}

TEST(ResumeTest, FullyCheckpointedGridRecomputesNothing) {
  ScopedStableTiming stable;
  const std::string path = CheckpointPath("full");
  std::remove(path.c_str());
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    ASSERT_TRUE(MakeRunner().Run(hooks).ok());
  }
  CheckpointStore checkpoint(path);
  ASSERT_TRUE(checkpoint.Load().ok());
  EXPECT_EQ(checkpoint.done_cells(), 4);
  // Arm the fault to fire before the *first fresh* cell: if every cell is
  // restored, the injector never sees a fresh cell and the run succeeds.
  FaultInjector fault;
  fault.ArmAfterCells(0);
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  hooks.fault = &fault;
  int prepared = 0;
  auto result = MakeRunner(&prepared).Run(hooks);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cells.size(), 4u);
  // Key-first: every cell is restored before any set-up is needed, so no
  // dataset is generated, embedded or trained.
  EXPECT_EQ(prepared, 0);
  std::remove(path.c_str());
}

TEST(ResumeTest, PreparesOnlyDatasetsWithMissingCells) {
  // Canonical order is tiny-a/{lime,random}, tiny-b/{lime,random}. A run
  // killed after k cells has prepared the datasets of those k cells and no
  // more (the fault check precedes set-up, so a kill at the dataset
  // boundary k=2 never prepares tiny-b); the resume prepares exactly the
  // datasets that still miss a cell.
  ScopedStableTiming stable;
  struct Case {
    int kill_after;
    int prepared_before_kill;
    int prepared_on_resume;
  };
  for (const Case& c : {Case{0, 0, 2}, Case{1, 1, 2}, Case{2, 1, 1},
                        Case{3, 2, 1}}) {
    SCOPED_TRACE("kill_after=" + std::to_string(c.kill_after));
    const std::string path =
        CheckpointPath("lazy_" + std::to_string(c.kill_after));
    std::remove(path.c_str());
    {
      CheckpointStore checkpoint(path);
      ASSERT_TRUE(checkpoint.Load().ok());
      FaultInjector fault;
      fault.ArmAfterCells(c.kill_after);
      RunHooks hooks;
      hooks.checkpoint = &checkpoint;
      hooks.fault = &fault;
      int prepared = 0;
      ASSERT_FALSE(MakeRunner(&prepared).Run(hooks).ok());
      EXPECT_EQ(prepared, c.prepared_before_kill);
    }
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    int prepared = 0;
    auto resumed = MakeRunner(&prepared).Run(hooks);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(prepared, c.prepared_on_resume);
    EXPECT_EQ(checkpoint.done_cells(), 4);
    std::remove(path.c_str());
  }
}

TEST(ResumeTest, ShuffledCheckpointLinesRestoreTheSameGrid) {
  // Restore is by cell key, never by line position: permuting a complete
  // checkpoint's cell lines (header kept first) must resume to the
  // byte-identical document, with and without --metrics, and without
  // preparing anything.
  ScopedStableTiming stable;
  auto clean = MakeRunner().Run();
  ASSERT_TRUE(clean.ok());
  const std::string clean_json = ExperimentResultToJson(*clean);
  clean->include_metrics = true;
  const std::string clean_metrics_json = ExperimentResultToJson(*clean);

  const std::string path = CheckpointPath("shuffled");
  std::remove(path.c_str());
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    ASSERT_TRUE(MakeRunner().Run(hooks).ok());
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(path, std::ios::binary);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u);  // header + 4 cells
  for (const std::vector<int>& permutation :
       {std::vector<int>{4, 3, 2, 1}, std::vector<int>{2, 4, 1, 3},
        std::vector<int>{3, 1, 4, 2}}) {
    SCOPED_TRACE("cell lines " + std::to_string(permutation[0]) +
                 std::to_string(permutation[1]) +
                 std::to_string(permutation[2]) +
                 std::to_string(permutation[3]));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << lines[0] << '\n';
      for (int line : permutation) out << lines[line] << '\n';
    }
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    EXPECT_EQ(checkpoint.done_cells(), 4);
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    int prepared = 0;
    auto resumed = MakeRunner(&prepared).Run(hooks);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(prepared, 0);
    EXPECT_EQ(ExperimentResultToJson(*resumed), clean_json);
    resumed->include_metrics = true;
    EXPECT_EQ(ExperimentResultToJson(*resumed), clean_metrics_json);
  }
  std::remove(path.c_str());
}

TEST(ResumeTest, StreamShardCarriesTheWholeGridAcrossRestarts) {
  // The JSONL shard written by the killed run plus the resumed run's
  // appends reconstruct the full grid: header + one line per cell, with
  // restored cells re-emitted by the resumed process in completion order.
  ScopedStableTiming stable;
  const std::string ckpt = CheckpointPath("shard_ckpt");
  const std::string shard = CheckpointPath("shard_stream");
  std::remove(ckpt.c_str());
  std::remove(shard.c_str());
  {
    CheckpointStore checkpoint(ckpt);
    ASSERT_TRUE(checkpoint.Load().ok());
    FaultInjector fault;
    fault.ArmAfterCells(2);
    JsonlStreamSink sink(shard);
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    hooks.fault = &fault;
    hooks.sinks.push_back(&sink);
    ASSERT_FALSE(MakeRunner().Run(hooks).ok());
  }
  // The resumed run opens its own shard (truncating): what matters is that
  // the final shard alone reconstructs all four cells.
  CheckpointStore checkpoint(ckpt);
  ASSERT_TRUE(checkpoint.Load().ok());
  JsonlStreamSink sink(shard);
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  hooks.sinks.push_back(&sink);
  auto result = MakeRunner().Run(hooks);
  ASSERT_TRUE(result.ok());

  std::FILE* f = std::fopen(shard.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  int headers = 0;
  int cells = 0;
  size_t start = 0;
  while (start < content.size()) {
    size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    auto record = ParseCellRecord(content.substr(start, end - start));
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    if (record->kind == "header") {
      ++headers;
      EXPECT_EQ(record->experiment, "resume_grid");
    } else {
      ++cells;
    }
    start = end + 1;
  }
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(cells, 4);
  std::remove(ckpt.c_str());
  std::remove(shard.c_str());
}

TEST(ResumeTest, CheckpointFromDifferentExperimentIsRefused) {
  ScopedStableTiming stable;
  const std::string path = CheckpointPath("wrong_experiment");
  std::remove(path.c_str());
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    ExperimentResult other;
    other.name = "some_other_experiment";
    ASSERT_TRUE(checkpoint.WriteHeaderIfNew(other).ok());
  }
  CheckpointStore checkpoint(path);
  ASSERT_TRUE(checkpoint.Load().ok());
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  auto result = MakeRunner().Run(hooks);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crew
