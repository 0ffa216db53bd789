// Seeded mutation fuzzing of the checkpoint reader: ParseCellRecord and
// CheckpointStore::Load. The corpus is built from the writer
// (HeaderToJsonl/CellToJsonl) over cells that use every field type, every
// MetricKind and strings with quotes, backslashes, control bytes and UTF-8.
// crew::Rng drives the mutations: byte flips, inserts and deletes, every
// truncation point, splices of two lines, duplicated and reordered lines,
// and number runs swapped for extreme or foreign forms. Invariants:
//   * ParseCellRecord returns OK, DataLoss or FailedPrecondition, nothing
//     else, and an OK record is a fixed point: written back out, it parses
//     to a record that writes the same bytes again;
//   * CheckpointStore::Load returns; after an OK load the file is a
//     newline-terminated prefix of what it held, every line of it parses,
//     and every restored cell writes a line that parses.
// Each input is checked in microseconds, so the whole run stays far below
// the ctest TIMEOUT even under the sanitizers.

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "crew/common/json.h"
#include "crew/common/logging.h"
#include "crew/common/rng.h"
#include "crew/eval/streaming.h"

namespace crew {
namespace {

ExperimentResult Header() {
  ExperimentResult header;
  header.name = "fuzz \"exp\"";
  header.params = {{"seed", "7"},
                   {"note", "caf\xc3\xa9 \xf0\x9f\x98\x80"},
                   {"path", "a\\b\t/c\x01\x1f\x7f"}};
  return header;
}

InstanceEvaluation Instance(int index) {
  InstanceEvaluation r;
  r.index = index;
  r.evaluated = true;
  r.predicted_match = index % 2 == 0;
  r.aopc = 0.1 * index;
  r.comprehensiveness_at_1 = -0.0;
  r.comprehensiveness_at_3 = 1e308;
  r.sufficiency_at_1 = 4.9406564584124654e-324;
  r.sufficiency_at_3 = std::numeric_limits<double>::quiet_NaN();
  r.decision_flip = true;
  r.insertion_aopc = -2.5e-7;
  r.flip_set = {true, 3, 11};
  r.curve = {0.9, 0.5, 1.0 / 3.0, 0.0};
  r.total_units = 4;
  r.has_cluster_stats = true;
  r.cluster_silhouette = -0.75;
  r.chosen_k = INT_MAX;
  r.runtime_ms = 12.5;
  return r;
}

std::vector<std::pair<std::string, ExperimentCell>> Cells() {
  ExperimentCell full;
  full.dataset = "products-structured";
  full.variant = "CREW \"k=3\"";
  full.aggregate.name = full.variant;
  full.aggregate.instances = 2;
  full.aggregate.aopc = 0.123456789012345678;
  full.aggregate.mean_chosen_k = 2.5;
  full.aggregate.stability = std::numeric_limits<double>::infinity();
  full.instances = {Instance(0), Instance(INT_MIN)};
  full.registry = {  // name-sorted, as every snapshot is
      {"crew/scoring/batch_size", MetricKind::kHistogram, INT64_MIN, 0.0},
      {"crew/scoring/pairs", MetricKind::kCounter, INT64_MAX, 0.0},
      {"crew/stage/affinity", MetricKind::kDuration, 42, 3.25},
  };
  full.metrics = {{"f1", 0.5}, {"nan", std::nan("")}, {"neg", -1e-300}};
  full.notes = {{"quote", "say \"hi\""},
                {"ctl", std::string("nul\0 cr\r lf\n tab\t", 17)},
                {"utf8", "\xe2\x82\xac \xf0\x9f\x98\x80"}};
  full.wall_ms = 1234.5;

  ExperimentCell empty;
  empty.dataset = "d";
  empty.variant = "";

  ExperimentCell one = full;
  one.variant = "LIME";
  one.instances.resize(1);
  one.registry.resize(1);
  return {{"", full}, {"samples=32", empty}, {"", one}};
}

std::vector<std::string> CorpusLines() {
  std::vector<std::string> lines = {HeaderToJsonl(Header())};
  for (const auto& [scope, cell] : Cells()) {
    lines.push_back(CellToJsonl(scope, cell));
  }
  return lines;
}

// A record written back out by the writer.
std::string Rewrite(const CellRecord& record) {
  if (record.kind == "header") {
    ExperimentResult header;
    header.name = record.experiment;
    header.params = record.params;
    return HeaderToJsonl(header);
  }
  return CellToJsonl(record.scope, record.cell);
}

bool Acceptable(StatusCode code) {
  return code == StatusCode::kDataLoss ||
         code == StatusCode::kFailedPrecondition;
}

// Checks ParseCellRecord's invariants on `line`; true when it parsed.
bool CheckLine(const std::string& line) {
  const Result<CellRecord> record = ParseCellRecord(line);
  if (!record.ok()) {
    EXPECT_TRUE(Acceptable(record.status().code()))
        << record.status().ToString() << " for " << JsonStr(line);
    return false;
  }
  const std::string once = Rewrite(*record);
  const Result<CellRecord> again = ParseCellRecord(once);
  if (!again.ok()) {
    ADD_FAILURE() << again.status().ToString() << " re-reading "
                  << JsonStr(once) << " written from " << JsonStr(line);
    return true;
  }
  EXPECT_EQ(Rewrite(*again), once) << "from " << JsonStr(line);
  return true;
}

// Number forms the writer produces at the edges of each field's range, and
// forms it never produces.
const std::vector<std::string>& ExtremeNumbers() {
  static const auto* values = new std::vector<std::string>{
      "1e308", "1e309", "-1e309", "1e-400", "4.9406564584124654e-324",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "9007199254740993", "2147483647",
      "2147483648", "-2147483649", "-0", "0", "null", "inf", "-inf", "nan",
      "NaN", "0x10", "+1", " 1", "1.", ".5", "00", "1e", "1E5", "true",
      "\"1\"", "18446744073709551616"};
  return *values;
}

// Bytes that matter to the grammar, plus the first byte of a UTF-8
// sequence.
constexpr char kInteresting[] = "\"\\,:{}[] \t\r\n-+.eE0159nulltrue\x01\xc3";

std::string Mutate(const std::vector<std::string>& corpus, Rng& rng) {
  std::string line = corpus[rng.UniformInt(static_cast<int>(corpus.size()))];
  const int rounds = rng.UniformInt(1, 3);
  for (int round = 0; round < rounds; ++round) {
    const int size = static_cast<int>(line.size());
    const int at = rng.UniformInt(size + 1);
    switch (rng.UniformInt(6)) {
      case 0:  // flip one byte
        if (at < size) {
          line[at] = static_cast<char>(line[at] ^ rng.UniformInt(1, 255));
        }
        break;
      case 1: {  // insert a byte
        const char c =
            rng.Bernoulli(0.5)
                ? kInteresting[rng.UniformInt(sizeof(kInteresting) - 1)]
                : static_cast<char>(rng.UniformInt(256));
        line.insert(line.begin() + at, c);
        break;
      }
      case 2:  // delete a short run
        line.erase(at, rng.UniformInt(1, 8));
        break;
      case 3: {  // splice: this line's prefix, another line's suffix
        const std::string& other =
            corpus[rng.UniformInt(static_cast<int>(corpus.size()))];
        line = line.substr(0, at) +
               other.substr(rng.UniformInt(static_cast<int>(other.size()) + 1));
        break;
      }
      case 4: {  // a number run swapped for an extreme value
        size_t begin = line.find_first_of("-0123456789", at);
        if (begin == std::string::npos) begin = line.find_first_of("0123456789");
        if (begin == std::string::npos) break;
        const size_t end = line.find_first_not_of("-+.eE0123456789", begin);
        const std::vector<std::string>& values = ExtremeNumbers();
        line.replace(begin, end == std::string::npos ? end : end - begin,
                     values[rng.UniformInt(static_cast<int>(values.size()))]);
        break;
      }
      default:  // overwrite one byte with a grammar byte
        if (at < size) {
          line[at] = kInteresting[rng.UniformInt(sizeof(kInteresting) - 1)];
        }
        break;
    }
  }
  return line;
}

TEST(CheckpointFuzzTest, CorpusReadsBackToTheSameBytes) {
  for (const std::string& line : CorpusLines()) {
    const Result<CellRecord> record = ParseCellRecord(line);
    ASSERT_TRUE(record.ok()) << record.status().ToString() << JsonStr(line);
    EXPECT_EQ(Rewrite(*record), line);
  }
}

TEST(CheckpointFuzzTest, EveryTruncationOfEveryLine) {
  const std::vector<std::string> corpus = CorpusLines();
  for (const std::string& line : corpus) {
    int parsed = 0;
    for (size_t n = 0; n <= line.size(); ++n) {
      parsed += CheckLine(line.substr(0, n));
    }
    EXPECT_EQ(parsed, 1) << "only the whole line is a record";
  }
}

TEST(CheckpointFuzzTest, MutatedLines) {
  const std::vector<std::string> corpus = CorpusLines();
  Rng rng(20240611);
  int parsed = 0;
  for (int i = 0; i < 100000; ++i) parsed += CheckLine(Mutate(corpus, rng));
  // Most mutations must be refused; some (a flipped digit, a changed
  // letter inside a string) are records of their own.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, 100000 / 2);
}

TEST(CheckpointFuzzTest, SplicedAndDuplicatedLines) {
  const std::vector<std::string> corpus = CorpusLines();
  for (const std::string& a : corpus) {
    for (const std::string& b : corpus) {
      // One line holds one record.
      EXPECT_FALSE(CheckLine(a + b));
      EXPECT_FALSE(CheckLine(a + "\n" + b));
      for (size_t cut = 0; cut <= a.size(); cut += 7) {
        CheckLine(a.substr(0, cut) + b.substr(cut < b.size() ? cut : 0));
      }
    }
  }
}

std::string ReadFile(const std::string& path) {
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

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CREW_CHECK(f != nullptr);
  CREW_CHECK(std::fwrite(content.data(), 1, content.size(), f) ==
             content.size());
  std::fclose(f);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t newline = text.find('\n', pos);
    lines.push_back(text.substr(pos, newline - pos));
    pos = newline + 1;
  }
  return lines;
}

// Loads `bytes` from a fresh file and checks Load's invariants.
void CheckLoad(const std::string& path, const std::string& bytes) {
  WriteFile(path, bytes);
  CheckpointStore store(path);
  const Status status = store.Load();
  if (!status.ok()) {
    EXPECT_TRUE(Acceptable(status.code())) << status.ToString();
    return;
  }
  const std::string kept = ReadFile(path);
  ASSERT_EQ(bytes.compare(0, kept.size(), kept), 0)
      << "not a prefix: " << JsonStr(kept);
  ASSERT_TRUE(kept.empty() || kept.back() == '\n') << JsonStr(kept);
  std::set<std::string> keys;
  for (const std::string& line : SplitLines(kept)) {
    const Result<CellRecord> record = ParseCellRecord(line);
    ASSERT_TRUE(record.ok()) << record.status().ToString() << JsonStr(line);
    if (record->kind != "cell") continue;
    const std::string key =
        CellKey(record->scope, record->cell.dataset, record->cell.variant);
    keys.insert(key);
    const ExperimentCell* restored = store.Restored(key);
    ASSERT_NE(restored, nullptr) << key;
    CheckLine(CellToJsonl(record->scope, *restored));
  }
  EXPECT_EQ(store.done_cells(), static_cast<int>(keys.size()));
}

TEST(CheckpointFuzzTest, MutatedCheckpointFilesLoadSafely) {
  const std::vector<std::string> corpus = CorpusLines();
  std::string file;
  for (const std::string& line : corpus) file += line + "\n";
  const std::string path = ::testing::TempDir() + "/checkpoint_fuzz.jsonl";
  // Most files end in a dropped line; its warning would flood the log.
  const LogSeverity severity = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);

  CheckLoad(path, file);
  for (size_t n = 0; n <= file.size(); n += 13) {
    CheckLoad(path, file.substr(0, n));
  }
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    std::vector<std::string> lines = corpus;
    const int line_count = static_cast<int>(lines.size());
    switch (rng.UniformInt(4)) {
      case 0:  // one line mutated in place
        lines[rng.UniformInt(line_count)] = Mutate(corpus, rng);
        break;
      case 1:  // a line duplicated elsewhere
        lines.insert(lines.begin() + rng.UniformInt(line_count + 1),
                     lines[rng.UniformInt(line_count)]);
        break;
      case 2:  // two lines swapped
        std::swap(lines[rng.UniformInt(line_count)],
                  lines[rng.UniformInt(line_count)]);
        break;
      default:  // a line dropped
        lines.erase(lines.begin() + rng.UniformInt(line_count));
        break;
    }
    std::string bytes;
    for (const std::string& line : lines) bytes += line + "\n";
    // Every other file is cut at a random byte, as a crash would leave it.
    if (i % 2 == 1) {
      bytes.resize(rng.UniformInt(static_cast<int>(bytes.size()) + 1));
    }
    CheckLoad(path, bytes);
  }
  SetMinLogSeverity(severity);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crew
