// Tests for the streaming execution layer's serialization and sinks: the
// JSONL v2 schema is pinned by golden lines (a change that breaks old
// shards must show up here and bump kCellSchemaVersion), records round-trip
// with full fidelity, the --json document is built from the same records,
// JsonlStreamSink appends in completion order, the partial-table sink
// renders after every cell, and CheckpointStore recovers from exactly the
// corruption a crash can produce — a torn trailing line — while refusing
// interior corruption and schema-version mismatches anywhere.

#include "crew/eval/streaming.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "crew/common/logging.h"
#include "crew/eval/sinks.h"

namespace crew {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  CREW_CHECK(f != nullptr);
  std::string out;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CREW_CHECK(f != nullptr);
  CREW_CHECK(std::fwrite(content.data(), 1, content.size(), f) ==
             content.size());
  std::fclose(f);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A small but fully populated cell: dyadic doubles serialize exactly
// ("0.25"), 0.1 exercises the %.17g round-trip tail
// ("0.10000000000000001").
ExperimentCell SampleCell() {
  ExperimentCell cell;
  cell.dataset = "d";
  cell.variant = "v";
  cell.aggregate.name = "v";
  cell.aggregate.instances = 1;
  cell.aggregate.aopc = 0.25;
  cell.aggregate.stability = 0.1;
  InstanceEvaluation r;
  r.index = 3;
  r.evaluated = true;
  r.aopc = 0.5;
  r.curve = {0.5, 1.0};
  cell.instances.push_back(r);
  cell.registry.push_back({"m", MetricKind::kCounter, 2, 0.0});
  cell.metrics.push_back({"f1", 0.5});
  cell.notes.push_back({"k", "val"});
  return cell;
}

ExperimentResult SampleHeader() {
  ExperimentResult header;
  header.name = "golden";
  header.params = {{"seed", "7"}, {"matcher", "mlp"}};
  return header;
}

TEST(CellJsonlTest, HeaderGoldenLine) {
  EXPECT_EQ(HeaderToJsonl(SampleHeader()),
            "{\"v\":2,\"kind\":\"header\",\"experiment\":\"golden\","
            "\"params\":[[\"seed\",\"7\"],[\"matcher\",\"mlp\"]]}");
}

TEST(CellJsonlTest, CellGoldenLine) {
  const std::string golden =
      "{\"v\":2,\"kind\":\"cell\",\"scope\":\"s\",\"dataset\":\"d\","
      "\"variant\":\"v\",\"aggregate\":{\"name\":\"v\",\"instances\":1,"
      "\"aopc\":0.25,\"comprehensiveness_at_1\":0,"
      "\"comprehensiveness_at_3\":0,\"sufficiency_at_1\":0,"
      "\"sufficiency_at_3\":0,\"comprehensiveness_budget5\":0,"
      "\"decision_flip_rate\":0,\"insertion_aopc\":0,\"flip_set_rate\":0,"
      "\"flip_set_units\":0,\"flip_set_tokens\":0,\"total_units\":0,"
      "\"effective_units\":0,\"words_per_unit\":0,\"semantic_coherence\":0,"
      "\"attribute_purity\":0,\"cluster_coherence\":0,"
      "\"cluster_silhouette\":0,\"mean_chosen_k\":0,"
      "\"stability\":0.10000000000000001,\"surrogate_r2\":0,"
      "\"runtime_ms\":0},\"instances\":[{\"index\":3,\"evaluated\":true,"
      "\"predicted_match\":false,\"aopc\":0.5,\"comprehensiveness_at_1\":0,"
      "\"comprehensiveness_at_3\":0,\"sufficiency_at_1\":0,"
      "\"sufficiency_at_3\":0,\"comprehensiveness_budget\":0,"
      "\"decision_flip\":false,\"insertion_aopc\":0,"
      "\"flip_set\":{\"flipped\":false,\"units_removed\":0,"
      "\"tokens_removed\":0},\"curve\":[0.5,1],\"total_units\":0,"
      "\"effective_units\":0,\"words_per_unit\":0,\"semantic_coherence\":0,"
      "\"attribute_purity\":0,\"has_cluster_stats\":false,"
      "\"cluster_coherence\":0,\"cluster_silhouette\":0,\"chosen_k\":0,"
      "\"stability\":0,\"surrogate_r2\":0,\"runtime_ms\":0}],"
      "\"registry\":[{\"name\":\"m\",\"kind\":\"counter\","
      "\"count\":2,\"ms\":0}],\"metrics\":[[\"f1\",0.5]],"
      "\"notes\":[[\"k\",\"val\"]],\"wall_ms\":0}";
  EXPECT_EQ(CellToJsonl("s", SampleCell()), golden);
}

TEST(CellJsonlTest, CellRoundTripsThroughParse) {
  const ExperimentCell cell = SampleCell();
  auto record = ParseCellRecord(CellToJsonl("scope", cell));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->kind, "cell");
  EXPECT_EQ(record->scope, "scope");
  const ExperimentCell& back = record->cell;
  EXPECT_EQ(back.dataset, "d");
  EXPECT_EQ(back.variant, "v");
  EXPECT_EQ(back.aggregate.name, "v");
  EXPECT_EQ(back.aggregate.instances, 1);
  EXPECT_EQ(back.aggregate.aopc, 0.25);
  EXPECT_EQ(back.aggregate.stability, 0.1);  // exact %.17g round-trip
  ASSERT_EQ(back.instances.size(), 1u);
  EXPECT_EQ(back.instances[0].index, 3);
  EXPECT_TRUE(back.instances[0].evaluated);
  EXPECT_EQ(back.instances[0].aopc, 0.5);
  EXPECT_EQ(back.instances[0].curve, (std::vector<double>{0.5, 1.0}));
  ASSERT_EQ(back.registry.size(), 1u);
  EXPECT_EQ(back.registry[0].name, "m");
  EXPECT_EQ(back.registry[0].kind, MetricKind::kCounter);
  EXPECT_EQ(back.registry[0].count, 2);
  ASSERT_EQ(back.metrics.size(), 1u);
  EXPECT_EQ(back.metrics[0].first, "f1");
  EXPECT_EQ(back.metrics[0].second, 0.5);
  ASSERT_EQ(back.notes.size(), 1u);
  EXPECT_EQ(back.notes[0].second, "val");
}

// Integers read back exactly over each field's whole range: a detour
// through double would round 2^53+1 and refuse INT64_MAX.
TEST(CellJsonlTest, IntegersRoundTripExactlyAtTheirLimits) {
  ExperimentCell cell = SampleCell();
  cell.aggregate.instances = INT_MAX;
  cell.instances[0].index = INT_MIN;
  cell.instances[0].chosen_k = INT_MAX;
  cell.instances[0].flip_set.units_removed = INT_MIN;
  cell.instances[0].flip_set.tokens_removed = INT_MAX;
  cell.registry = {{"a", MetricKind::kCounter, (int64_t{1} << 53) + 1, 0.0},
                   {"b", MetricKind::kDuration, INT64_MAX, 0.0},
                   {"c", MetricKind::kHistogram, INT64_MIN, 0.0}};
  const std::string line = CellToJsonl("", cell);
  auto record = ParseCellRecord(line);
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  const ExperimentCell& back = record->cell;
  EXPECT_EQ(back.aggregate.instances, INT_MAX);
  EXPECT_EQ(back.instances[0].index, INT_MIN);
  EXPECT_EQ(back.instances[0].chosen_k, INT_MAX);
  EXPECT_EQ(back.instances[0].flip_set.units_removed, INT_MIN);
  EXPECT_EQ(back.instances[0].flip_set.tokens_removed, INT_MAX);
  ASSERT_EQ(back.registry.size(), 3u);
  EXPECT_EQ(back.registry[0].count, 9007199254740993);
  EXPECT_EQ(back.registry[1].count, INT64_MAX);
  EXPECT_EQ(back.registry[2].count, INT64_MIN);
  EXPECT_EQ(CellToJsonl("", back), line);

  // On an interior checkpoint line the same cell must not fail the load.
  const std::string path = TempPath("ckpt_extreme_ints.jsonl");
  ExperimentCell next = SampleCell();
  next.variant = "w";
  WriteFileOrDie(path, HeaderToJsonl(SampleHeader()) + "\n" + line + "\n" +
                           CellToJsonl("", next) + "\n");
  CheckpointStore store(path);
  ASSERT_TRUE(store.Load().ok());
  const ExperimentCell* restored = store.Restored(CellKey("", "d", "v"));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->registry[1].count, INT64_MAX);
  EXPECT_EQ(store.done_cells(), 2);
  std::remove(path.c_str());
}

TEST(CellJsonlTest, HeaderRoundTripsThroughParse) {
  auto record = ParseCellRecord(HeaderToJsonl(SampleHeader()));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->kind, "header");
  EXPECT_EQ(record->experiment, "golden");
  ASSERT_EQ(record->params.size(), 2u);
  EXPECT_EQ(record->params[0].first, "seed");
  EXPECT_EQ(record->params[1].second, "mlp");
}

TEST(CellJsonlTest, VersionMismatchIsFailedPrecondition) {
  auto record = ParseCellRecord("{\"v\":999,\"kind\":\"cell\"}");
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CellJsonlTest, GarbageIsDataLoss) {
  auto record = ParseCellRecord("{\"v\":2,\"kind\":\"cell\",\"data");
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), StatusCode::kDataLoss);
}

// `line` with its first occurrence of `from` replaced by `to`.
std::string ReplaceOnce(const std::string& line, const std::string& from,
                        const std::string& to) {
  const size_t pos = line.find(from);
  CREW_CHECK(pos != std::string::npos);
  std::string out = line.substr(0, pos);
  out += to;
  out += line.substr(pos + from.size());
  return out;
}

void ExpectDataLoss(const std::string& line) {
  auto record = ParseCellRecord(line);
  ASSERT_FALSE(record.ok()) << line;
  EXPECT_EQ(record.status().code(), StatusCode::kDataLoss)
      << record.status().ToString();
}

// Far deeper than any stack could recurse; the reader must refuse it
// without recursing on the brackets.
const std::string& DeeplyNestedLine() {
  static const std::string* line = new std::string(1000000, '[');
  return *line;
}

TEST(CellJsonlTest, DeepNestingIsDataLoss) {
  ExpectDataLoss(DeeplyNestedLine());
}

// Integer fields accept only integral numbers their type can hold:
// casting null (NaN), a fraction or an out-of-range double is undefined.
TEST(CellJsonlTest, BadVersionIntegerIsDataLoss) {
  for (const char* bad : {"1e300", "-1e300", "2.5", "null"}) {
    std::string line = "{\"v\":";
    line += bad;
    line += ",\"kind\":\"cell\"}";
    ExpectDataLoss(line);
  }
}

TEST(CellJsonlTest, BadInstanceIndexIsDataLoss) {
  const std::string line = CellToJsonl("", SampleCell());
  for (const char* bad : {"1e300", "3.5", "null", "2147483648"}) {
    ExpectDataLoss(
        ReplaceOnce(line, "\"index\":3", std::string("\"index\":") + bad));
  }
}

TEST(CellJsonlTest, BadRegistryCountIsDataLoss) {
  const std::string line = CellToJsonl("", SampleCell());
  for (const char* bad : {"1e300", "-1e19", "2.5", "null"}) {
    ExpectDataLoss(
        ReplaceOnce(line, "\"count\":2", std::string("\"count\":") + bad));
  }
}

TEST(ExperimentJsonTest, CellsAreTheCheckpointRecords) {
  // --json is the header record plus one cell record per cell, written by
  // the same code as the JSONL stream; without --metrics the registry is
  // emptied. Every element parses back to the cell it was written from.
  ExperimentResult result = SampleHeader();
  result.cells.push_back(SampleCell());
  ExperimentCell second = SampleCell();
  second.variant = "w";
  second.instances.clear();
  result.cells.push_back(second);
  for (bool include_metrics : {false, true}) {
    SCOPED_TRACE(include_metrics ? "include_metrics" : "no metrics");
    result.include_metrics = include_metrics;
    std::string expected = "{\"header\":";
    expected += HeaderToJsonl(result);
    expected += ",\"cells\":[";
    std::vector<std::string> lines;
    for (const ExperimentCell& cell : result.cells) {
      ExperimentCell written = cell;
      if (!include_metrics) written.registry.clear();
      lines.push_back(CellToJsonl("", written));
      if (lines.size() > 1) expected += ',';
      expected += lines.back();
    }
    expected += "]}";
    const std::string json = ExperimentResultToJson(result);
    EXPECT_EQ(json, expected);
    EXPECT_EQ(json.find("\"registry\":[]") == std::string::npos,
              include_metrics);
    for (const std::string& line : lines) {
      auto record = ParseCellRecord(line);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      EXPECT_EQ(CellToJsonl("", record->cell), line);
    }
  }
}

TEST(JsonlStreamSinkTest, AppendsHeaderThenCellsInOrder) {
  const std::string path = TempPath("stream_order.jsonl");
  std::remove(path.c_str());
  const ExperimentResult header = SampleHeader();
  ExperimentCell a = SampleCell();
  ExperimentCell b = SampleCell();
  b.variant = "w";
  {
    JsonlStreamSink sink(path, "s");
    ASSERT_TRUE(sink.OnBegin(header).ok());
    ASSERT_TRUE(sink.OnCell(a, /*restored=*/false).ok());
    // A second OnBegin (parameter sweeps re-enter the runner) must not
    // truncate what streamed already.
    ASSERT_TRUE(sink.OnBegin(header).ok());
    ASSERT_TRUE(sink.OnCell(b, /*restored=*/false).ok());
  }
  const std::string expected = HeaderToJsonl(header) + "\n" +
                               CellToJsonl("s", a) + "\n" +
                               CellToJsonl("s", b) + "\n";
  EXPECT_EQ(ReadFileOrDie(path), expected);
  std::remove(path.c_str());
}

TEST(PartialTableSinkTest, RendersAfterEveryCell) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  PartialTableSink sink({}, out);
  ExperimentResult header = SampleHeader();
  header.cells.resize(2);  // runner pre-sizes the grid before OnBegin
  ASSERT_TRUE(sink.OnBegin(header).ok());
  ASSERT_TRUE(sink.OnCell(SampleCell(), /*restored=*/false).ok());
  ExperimentCell second = SampleCell();
  second.variant = "w";
  ASSERT_TRUE(sink.OnCell(second, /*restored=*/true).ok());

  std::rewind(out);
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, out)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(out);
  EXPECT_NE(text.find("-- partial: 1/2 cell(s) --"), std::string::npos);
  EXPECT_NE(text.find("-- partial: 2/2 cell(s) --"), std::string::npos);
  EXPECT_NE(text.find("aopc"), std::string::npos);
}

TEST(CheckpointStoreTest, AppendThenLoadRestoresTheCell) {
  const std::string path = TempPath("ckpt_roundtrip.jsonl");
  std::remove(path.c_str());
  const ExperimentResult header = SampleHeader();
  const ExperimentCell cell = SampleCell();
  {
    CheckpointStore store(path);
    ASSERT_TRUE(store.Load().ok());
    ASSERT_TRUE(store.WriteHeaderIfNew(header).ok());
    ASSERT_TRUE(store.Append("s", cell).ok());
    // Idempotent by key: the duplicate append is silently skipped.
    ASSERT_TRUE(store.Append("s", cell).ok());
    EXPECT_EQ(store.done_cells(), 1);
  }
  CheckpointStore reloaded(path);
  ASSERT_TRUE(reloaded.Load().ok());
  EXPECT_EQ(reloaded.done_cells(), 1);
  EXPECT_EQ(reloaded.Restored(CellKey("", "d", "v")), nullptr);
  const ExperimentCell* restored = reloaded.Restored(CellKey("s", "d", "v"));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->aggregate.aopc, 0.25);
  EXPECT_EQ(restored->instances.size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, TornTrailingLineIsDroppedAndTruncated) {
  const std::string path = TempPath("ckpt_torn.jsonl");
  const std::string good = HeaderToJsonl(SampleHeader()) + "\n" +
                           CellToJsonl("", SampleCell()) + "\n";
  // A crash mid-append leaves an unterminated prefix of the next line.
  WriteFileOrDie(path, good + "{\"v\":2,\"kind\":\"ce");
  CheckpointStore store(path);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(store.done_cells(), 1);
  // The file was rewritten-truncated back to the last good record, so a
  // later append never lands after garbage.
  EXPECT_EQ(ReadFileOrDie(path), good);
  ExperimentCell next = SampleCell();
  next.variant = "w";
  ASSERT_TRUE(store.Append("", next).ok());
  EXPECT_EQ(ReadFileOrDie(path), good + CellToJsonl("", next) + "\n");
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, TerminatedGarbageTailIsAlsoDropped) {
  const std::string path = TempPath("ckpt_garbage_tail.jsonl");
  const std::string good = HeaderToJsonl(SampleHeader()) + "\n" +
                           CellToJsonl("", SampleCell()) + "\n";
  WriteFileOrDie(path, good + "{\"v\":2,\"kind\":\"cell\",\"broken\n");
  CheckpointStore store(path);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(store.done_cells(), 1);
  EXPECT_EQ(ReadFileOrDie(path), good);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, InteriorCorruptionIsAnError) {
  const std::string path = TempPath("ckpt_interior.jsonl");
  WriteFileOrDie(path, HeaderToJsonl(SampleHeader()) + "\n" +
                           "not json at all\n" +
                           CellToJsonl("", SampleCell()) + "\n");
  CheckpointStore store(path);
  const Status status = store.Load();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, DeeplyNestedInteriorLineIsAnError) {
  const std::string path = TempPath("ckpt_deep_interior.jsonl");
  WriteFileOrDie(path, HeaderToJsonl(SampleHeader()) + "\n" +
                           DeeplyNestedLine() + "\n" +
                           CellToJsonl("", SampleCell()) + "\n");
  CheckpointStore store(path);
  const Status status = store.Load();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, DeeplyNestedLastLineIsDroppedAndTruncated) {
  const std::string path = TempPath("ckpt_deep_tail.jsonl");
  const std::string good = HeaderToJsonl(SampleHeader()) + "\n" +
                           CellToJsonl("", SampleCell()) + "\n";
  WriteFileOrDie(path, good + DeeplyNestedLine() + "\n");
  CheckpointStore store(path);
  ASSERT_TRUE(store.Load().ok());
  EXPECT_EQ(store.done_cells(), 1);
  EXPECT_EQ(ReadFileOrDie(path), good);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, VersionMismatchIsFatalEvenOnTheLastLine) {
  const std::string path = TempPath("ckpt_version.jsonl");
  WriteFileOrDie(path, HeaderToJsonl(SampleHeader()) + "\n" +
                           "{\"v\":999,\"kind\":\"cell\"}\n");
  CheckpointStore store(path);
  const Status status = store.Load();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointStoreTest, HeaderExperimentMismatchIsRefused) {
  const std::string path = TempPath("ckpt_name.jsonl");
  std::remove(path.c_str());
  {
    CheckpointStore store(path);
    ASSERT_TRUE(store.Load().ok());
    ASSERT_TRUE(store.WriteHeaderIfNew(SampleHeader()).ok());
  }
  CheckpointStore store(path);
  ASSERT_TRUE(store.Load().ok());
  ExperimentResult other;
  other.name = "different_experiment";
  EXPECT_FALSE(store.WriteHeaderIfNew(other).ok());
  std::remove(path.c_str());
}

TEST(FaultInjectorTest, FiresAfterTheConfiguredCellCount) {
  FaultInjector fault;
  fault.ArmAfterCells(2);
  EXPECT_TRUE(fault.armed());
  fault.FinalizeSchedule(10);
  EXPECT_FALSE(fault.FireNow());
  fault.CellCompleted();
  EXPECT_FALSE(fault.FireNow());
  fault.CellCompleted();
  EXPECT_TRUE(fault.FireNow());
  const Status status = fault.FaultStatus();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("fault injected"), std::string::npos);
}

TEST(FaultInjectorTest, SeedArmingIsDeterministicAndInRange) {
  for (uint64_t seed : {1u, 2u, 3u, 99u}) {
    FaultInjector a;
    a.ArmFromSeed(seed);
    a.FinalizeSchedule(7);
    FaultInjector b;
    b.ArmFromSeed(seed);
    b.FinalizeSchedule(7);
    EXPECT_EQ(a.fail_after(), b.fail_after()) << "seed=" << seed;
    EXPECT_GE(a.fail_after(), 0);
    EXPECT_LT(a.fail_after(), 7);
  }
}

// CREW_FAULT_SEED is outside input: only the decimal digits of a uint64
// arm the injector; anything else fails rather than running unarmed.
TEST(FaultInjectorTest, FaultSeedFromTheEnvironmentIsStrict) {
  const char* saved = std::getenv("CREW_FAULT_SEED");
  const std::string original = saved == nullptr ? "" : saved;
  for (const char* bad : {"abc", "-1", "", " 12", "12x",
                          "18446744073709551616"}) {
    ASSERT_EQ(setenv("CREW_FAULT_SEED", bad, 1), 0);
    auto fault = FaultInjector::FromFlagsAndEnv(-1);
    ASSERT_FALSE(fault.ok()) << "'" << bad << "'";
    EXPECT_EQ(fault.status().code(), StatusCode::kInvalidArgument);
  }
  ASSERT_EQ(setenv("CREW_FAULT_SEED", "12", 1), 0);
  auto seeded = FaultInjector::FromFlagsAndEnv(-1);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  ASSERT_NE(*seeded, nullptr);
  EXPECT_TRUE((*seeded)->armed());
  // An explicit --fail-after-cells wins without reading the variable.
  ASSERT_EQ(setenv("CREW_FAULT_SEED", "abc", 1), 0);
  auto flagged = FaultInjector::FromFlagsAndEnv(3);
  ASSERT_TRUE(flagged.ok());
  EXPECT_EQ((*flagged)->fail_after(), 3);
  ASSERT_EQ(unsetenv("CREW_FAULT_SEED"), 0);
  auto unarmed = FaultInjector::FromFlagsAndEnv(-1);
  ASSERT_TRUE(unarmed.ok());
  EXPECT_EQ(*unarmed, nullptr);
  if (saved != nullptr) setenv("CREW_FAULT_SEED", original.c_str(), 1);
}

TEST(ReplayResultTest, TableSinkReplayMatchesStreamedCells) {
  // A finished result reaches a TableSink through the streaming
  // interface, so a manual OnBegin/OnCell/OnEnd drive must render the same
  // table as ReplayResult().
  ExperimentResult result;
  result.name = "replay";
  result.cells.push_back(SampleCell());
  ExperimentCell second = SampleCell();
  second.variant = "w";
  result.cells.push_back(second);

  auto render = [&](bool streamed) {
    std::FILE* out = std::tmpfile();
    CREW_CHECK(out != nullptr);
    TableSink sink({AggColumn("aopc", &ExplainerAggregate::aopc)},
                   /*dataset_column=*/true, /*variant_column=*/true, out);
    if (streamed) {
      CREW_CHECK(sink.OnBegin(result).ok());
      for (const ExperimentCell& cell : result.cells) {
        CREW_CHECK(sink.OnCell(cell, false).ok());
      }
      CREW_CHECK(sink.OnEnd(result).ok());
    } else {
      CREW_CHECK(ReplayResult(sink, result).ok());
    }
    std::rewind(out);
    std::string text;
    char buffer[4096];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, out)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(out);
    return text;
  };
  const std::string batch = render(false);
  EXPECT_EQ(batch, render(true));
  EXPECT_NE(batch.find("0.25"), std::string::npos);
}

}  // namespace
}  // namespace crew
