#include "crew/eval/streaming.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

#include "crew/common/json.h"
#include "crew/common/logging.h"
#include "crew/common/rng.h"
#include "crew/common/string_util.h"

namespace crew {
namespace {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kDuration:
      return "duration";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

Result<MetricKind> MetricKindFromName(const std::string& name) {
  if (name == "counter") return MetricKind::kCounter;
  if (name == "duration") return MetricKind::kDuration;
  if (name == "histogram") return MetricKind::kHistogram;
  return Status::DataLoss("unknown metric kind: " + name);
}

// ---------------------------------------------------------------------------
// The record schema: every serialized field of every record type, listed
// once, in emission order. The writer (AppendValue) and the reader
// (Reader::Read) both walk these lists, so a new field is one line here.
// `Rec` is T or const T, so one list serves both directions.
// ---------------------------------------------------------------------------

template <class Rec, class T>
concept RecordOf = std::is_same_v<std::remove_const_t<Rec>, T>;

// The header line names the experiment; its cells follow as cell lines.
template <RecordOf<ExperimentResult> H, class F>
void Fields(H& h, F&& f) {
  f("experiment", h.name);
  f("params", h.params);
}

// Every ExplainerAggregate field, in declaration order. The aggregate is
// checkpointed verbatim (rather than re-reduced on restore) so a restored
// cell is bit-identical to the freshly computed one even if the reduction
// ever changes between versions.
template <RecordOf<ExplainerAggregate> A, class F>
void Fields(A& a, F&& f) {
  f("name", a.name);
  f("instances", a.instances);
  f("aopc", a.aopc);
  f("comprehensiveness_at_1", a.comprehensiveness_at_1);
  f("comprehensiveness_at_3", a.comprehensiveness_at_3);
  f("sufficiency_at_1", a.sufficiency_at_1);
  f("sufficiency_at_3", a.sufficiency_at_3);
  f("comprehensiveness_budget5", a.comprehensiveness_budget5);
  f("decision_flip_rate", a.decision_flip_rate);
  f("insertion_aopc", a.insertion_aopc);
  f("flip_set_rate", a.flip_set_rate);
  f("flip_set_units", a.flip_set_units);
  f("flip_set_tokens", a.flip_set_tokens);
  f("total_units", a.total_units);
  f("effective_units", a.effective_units);
  f("words_per_unit", a.words_per_unit);
  f("semantic_coherence", a.semantic_coherence);
  f("attribute_purity", a.attribute_purity);
  f("cluster_coherence", a.cluster_coherence);
  f("cluster_silhouette", a.cluster_silhouette);
  f("mean_chosen_k", a.mean_chosen_k);
  f("stability", a.stability);
  f("surrogate_r2", a.surrogate_r2);
  f("runtime_ms", a.runtime_ms);
}

template <RecordOf<FlipSetResult> S, class F>
void Fields(S& s, F&& f) {
  f("flipped", s.flipped);
  f("units_removed", s.units_removed);
  f("tokens_removed", s.tokens_removed);
}

// Every InstanceEvaluation field. Benches re-reduce instances after the
// grid runs (match/non-match splits, cross-dataset summaries, paired
// bootstrap over per-instance AOPC), so the checkpoint must carry full
// per-instance fidelity — an aggregate-only record could not reproduce a
// byte-identical --json document on resume.
template <RecordOf<InstanceEvaluation> R, class F>
void Fields(R& r, F&& f) {
  f("index", r.index);
  f("evaluated", r.evaluated);
  f("predicted_match", r.predicted_match);
  f("aopc", r.aopc);
  f("comprehensiveness_at_1", r.comprehensiveness_at_1);
  f("comprehensiveness_at_3", r.comprehensiveness_at_3);
  f("sufficiency_at_1", r.sufficiency_at_1);
  f("sufficiency_at_3", r.sufficiency_at_3);
  f("comprehensiveness_budget", r.comprehensiveness_budget);
  f("decision_flip", r.decision_flip);
  f("insertion_aopc", r.insertion_aopc);
  f("flip_set", r.flip_set);
  f("curve", r.curve);
  f("total_units", r.total_units);
  f("effective_units", r.effective_units);
  f("words_per_unit", r.words_per_unit);
  f("semantic_coherence", r.semantic_coherence);
  f("attribute_purity", r.attribute_purity);
  f("has_cluster_stats", r.has_cluster_stats);
  f("cluster_coherence", r.cluster_coherence);
  f("cluster_silhouette", r.cluster_silhouette);
  f("chosen_k", r.chosen_k);
  f("stability", r.stability);
  f("surrogate_r2", r.surrogate_r2);
  f("runtime_ms", r.runtime_ms);
}

template <RecordOf<MetricEntry> M, class F>
void Fields(M& m, F&& f) {
  f("name", m.name);
  f("kind", m.kind);
  f("count", m.count);
  f("ms", m.total_ms);
}

template <RecordOf<ExperimentCell> C, class F>
void Fields(C& c, F&& f) {
  f("dataset", c.dataset);
  f("variant", c.variant);
  f("aggregate", c.aggregate);
  f("instances", c.instances);
  f("registry", c.registry);
  f("metrics", c.metrics);
  f("notes", c.notes);
  f("wall_ms", c.wall_ms);
}

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

// ---------------------------------------------------------------------------
// Writing: records are objects, vectors arrays, pairs two-element arrays,
// doubles %.17g (see JsonDouble).
// ---------------------------------------------------------------------------

template <class T>
void AppendValue(const T& v, std::string* out);

// Appends `"key":value` for every field of `rec`, comma-separated from
// whatever precedes it unless that is the object's opening brace.
template <class Rec>
void AppendFields(const Rec& rec, std::string* out) {
  Fields(rec, [out](const char* key, const auto& value) {
    if (out->back() != '{') *out += ',';
    *out += '"';
    *out += key;
    *out += "\":";
    AppendValue(value, out);
  });
}

template <class T>
void AppendValue(const T& v, std::string* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out += JsonStr(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    *out += v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, double>) {
    *out += JsonDouble(v);
  } else if constexpr (std::is_integral_v<T>) {
    *out += std::to_string(v);
  } else if constexpr (std::is_same_v<T, MetricKind>) {
    *out += JsonStr(MetricKindName(v));
  } else if constexpr (kIsVector<T>) {
    *out += '[';
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) *out += ',';
      AppendValue(v[i], out);
    }
    *out += ']';
  } else if constexpr (kIsPair<T>) {
    *out += '[';
    AppendValue(v.first, out);
    *out += ',';
    AppendValue(v.second, out);
    *out += ']';
  } else {
    *out += '{';
    AppendFields(v, out);
    *out += '}';
  }
}

// "{"v":N,"kind":"<kind>"" — the open prefix every line starts with.
std::string RecordStart(const char* kind) {
  std::string out = "{\"v\":";  // += throughout: GCC 12 -Wrestrict (PR105651)
  out += std::to_string(kCellSchemaVersion);
  out += ",\"kind\":\"";
  out += kind;
  out += '"';
  return out;
}

// ---------------------------------------------------------------------------
// Reading: the writer's exact inverse. Reader walks a line with the same
// Fields(...) lists, in the same order, and reads each value straight into
// its typed field. Recursion follows the C++ types, never the input's
// brackets, so a hostile line cannot nest deeper than the schema (4
// levels). Anything the writer cannot have produced is DataLoss:
// whitespace between tokens, keys out of order, unknown or missing, and
// number or escape forms the writer never emits.
// ---------------------------------------------------------------------------

class Reader {
 public:
  explicit Reader(std::string_view line) : line_(line) {}

  Status Expect(std::string_view token) {
    if (Consume(token)) return Status::Ok();
    return Fail("expected '" + std::string(token) + "'");
  }

  Status ExpectEnd() const {
    return pos_ == line_.size() ? Status::Ok() : Fail("trailing bytes");
  }

  // Inverse of AppendFields: `"key":value` for every field of `rec`, with
  // the comma the writer puts before each key not right after a '{'.
  template <class Rec>
  Status ReadFields(Rec* rec) {
    Status status;
    Fields(*rec, [&](const char* key, auto& value) {
      if (!status.ok()) return;
      if (line_[pos_ - 1] != '{') status = Expect(",");
      if (status.ok()) status = Expect("\"");
      if (status.ok()) status = Expect(key);
      if (status.ok()) status = Expect("\":");
      if (status.ok()) status = Read(&value);
    });
    return status;
  }

  // Inverse of AppendValue, case for case. `*out` is freshly
  // default-constructed, so strings and vectors are appended to.
  template <class T>
  Status Read(T* out) {
    if constexpr (std::is_same_v<T, std::string>) {
      CREW_RETURN_IF_ERROR(Expect("\""));
      const size_t n = JsonUnescape(line_.substr(pos_), out);
      if (n == std::string_view::npos) return Fail("bad string");
      pos_ += n + 1;
    } else if constexpr (std::is_same_v<T, bool>) {
      if (Consume("true")) {
        *out = true;
      } else if (Consume("false")) {
        *out = false;
      } else {
        return Fail("expected a bool");
      }
    } else if constexpr (std::is_same_v<T, double>) {
      // Non-finite doubles are written as null (JSON cannot express them).
      if (Consume("null")) {
        *out = std::numeric_limits<double>::quiet_NaN();
      } else {
        return ReadNumber(out);
      }
    } else if constexpr (std::is_integral_v<T>) {
      return ReadNumber(out);
    } else if constexpr (std::is_same_v<T, MetricKind>) {
      std::string name;
      CREW_RETURN_IF_ERROR(Read(&name));
      Result<MetricKind> kind = MetricKindFromName(name);
      if (!kind.ok()) return kind.status();
      *out = *kind;
    } else if constexpr (kIsVector<T>) {
      CREW_RETURN_IF_ERROR(Expect("["));
      if (Consume("]")) return Status::Ok();
      do {
        CREW_RETURN_IF_ERROR(Read(&out->emplace_back()));
      } while (Consume(","));
      return Expect("]");
    } else if constexpr (kIsPair<T>) {
      CREW_RETURN_IF_ERROR(Expect("["));
      CREW_RETURN_IF_ERROR(Read(&out->first));
      CREW_RETURN_IF_ERROR(Expect(","));
      CREW_RETURN_IF_ERROR(Read(&out->second));
      return Expect("]");
    } else {
      CREW_RETURN_IF_ERROR(Expect("{"));
      CREW_RETURN_IF_ERROR(ReadFields(out));
      return Expect("}");
    }
    return Status::Ok();
  }

 private:
  Status Fail(const std::string& why) const {
    return Status::DataLoss("record parse error at byte " +
                            std::to_string(pos_) + ": " + why);
  }

  bool Consume(std::string_view token) {
    if (line_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  // Integers are exact over T's whole range; doubles are correctly
  // rounded, so %.17g reads back bit-identically. from_chars alone would
  // take "inf" and "nan", which the writer never produces.
  template <class T>
  Status ReadNumber(T* out) {
    const char* first = line_.data() + pos_;
    const char* last = line_.data() + line_.size();
    const char* digit = first != last && *first == '-' ? first + 1 : first;
    if (digit == last || *digit < '0' || *digit > '9') {
      return Fail("expected a number");
    }
    const auto [end, ec] = std::from_chars(first, last, *out);
    if (ec != std::errc()) return Fail("number out of range");
    pos_ += static_cast<size_t>(end - first);
    return Status::Ok();
  }

  std::string_view line_;
  size_t pos_ = 0;
};

Status FileError(const char* what, const std::string& path) {
  return Status::DataLoss(std::string(what) + ": " + path);
}

// fflush + kernel-level sync: after this returns OK the line survives a
// process kill (the crash mode the fault injector simulates; a power cut
// additionally needs the directory entry synced, which is out of scope).
Status FlushAndSync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) return FileError("flush failed", path);
#ifdef _WIN32
  if (_commit(_fileno(f)) != 0) return FileError("sync failed", path);
#else
  if (fsync(fileno(f)) != 0) return FileError("sync failed", path);
#endif
  return Status::Ok();
}

Status WriteLine(std::FILE* f, const std::string& line,
                 const std::string& path) {
  if (std::fwrite(line.data(), 1, line.size(), f) != line.size() ||
      std::fputc('\n', f) == EOF) {
    return FileError("short write", path);
  }
  return FlushAndSync(f, path);
}

}  // namespace

std::string CellKey(const std::string& scope, const std::string& dataset,
                    const std::string& variant) {
  std::string key;
  if (!scope.empty()) {
    key += scope;
    key += '|';
  }
  key += dataset;
  key += '|';
  key += variant;
  return key;
}

std::string HeaderToJsonl(const ExperimentResult& header) {
  std::string out = RecordStart("header");
  AppendFields(header, &out);
  out += '}';
  return out;
}

std::string CellToJsonl(const std::string& scope, const ExperimentCell& cell) {
  std::string out = RecordStart("cell");
  out += ",\"scope\":";
  out += JsonStr(scope);
  AppendFields(cell, &out);
  out += '}';
  return out;
}

Result<CellRecord> ParseCellRecord(const std::string& line) {
  // The inverse of RecordStart, then of HeaderToJsonl or CellToJsonl.
  Reader in(line);
  int version = 0;
  CREW_RETURN_IF_ERROR(in.Expect("{\"v\":"));
  CREW_RETURN_IF_ERROR(in.Read(&version));
  CREW_RETURN_IF_ERROR(in.Expect(","));
  // A wrong version is a schema mismatch (kFailedPrecondition), which
  // callers treat as fatal even on the trailing line, unlike the DataLoss a
  // torn write produces. The rest of that line is another schema's.
  if (version != kCellSchemaVersion) {
    return Status::FailedPrecondition(
        "unsupported cell schema version " + std::to_string(version) +
        " (expected " + std::to_string(kCellSchemaVersion) + ")");
  }
  CellRecord record;
  CREW_RETURN_IF_ERROR(in.Expect("\"kind\":"));
  CREW_RETURN_IF_ERROR(in.Read(&record.kind));
  if (record.kind == "header") {
    ExperimentResult header;
    CREW_RETURN_IF_ERROR(in.ReadFields(&header));
    record.experiment = std::move(header.name);
    record.params = std::move(header.params);
  } else if (record.kind == "cell") {
    CREW_RETURN_IF_ERROR(in.Expect(",\"scope\":"));
    CREW_RETURN_IF_ERROR(in.Read(&record.scope));
    CREW_RETURN_IF_ERROR(in.ReadFields(&record.cell));
  } else {
    return Status::DataLoss("unknown record kind: " + record.kind);
  }
  CREW_RETURN_IF_ERROR(in.Expect("}"));
  CREW_RETURN_IF_ERROR(in.ExpectEnd());
  // Canonicalize: snapshots are name-sorted by contract, and the --metrics
  // sum as well as the "registry" JSON block iterate in stored order, so a
  // restored cell must never depend on how the shard happened to order its
  // entries (e.g. after a hand-merged file).
  std::sort(record.cell.registry.begin(), record.cell.registry.end(),
            [](const MetricEntry& a, const MetricEntry& b) {
              return a.name < b.name;
            });
  return record;
}

// ---------------------------------------------------------------------------
// JsonlStreamSink
// ---------------------------------------------------------------------------

JsonlStreamSink::JsonlStreamSink(std::string path, std::string scope)
    : path_(std::move(path)), scope_(std::move(scope)) {}

JsonlStreamSink::~JsonlStreamSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status JsonlStreamSink::OnBegin(const ExperimentResult& header) {
  if (file_ != nullptr) return Status::Ok();  // sweep re-entry: keep shard
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::NotFound("cannot open for writing: " + path_);
  }
  return WriteLine(file_, HeaderToJsonl(header), path_);
}

Status JsonlStreamSink::OnCell(const ExperimentCell& cell, bool restored) {
  (void)restored;  // the stream is the full record, restored cells included
  if (file_ == nullptr) {
    return Status::FailedPrecondition("JsonlStreamSink: OnCell before OnBegin");
  }
  return WriteLine(file_, CellToJsonl(scope_, cell), path_);
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

CheckpointStore::CheckpointStore(std::string path) : path_(std::move(path)) {}

CheckpointStore::~CheckpointStore() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CheckpointStore::Load() {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return Status::Ok();  // no file yet: empty checkpoint
  std::string content;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return FileError("read failed", path_);

  size_t pos = 0;
  size_t good_end = 0;  // byte offset just past the last accepted line
  std::string drop_reason;
  while (pos < content.size()) {
    const size_t newline = content.find('\n', pos);
    const bool terminated = newline != std::string::npos;
    const size_t line_end = terminated ? newline : content.size();
    const std::string line = content.substr(pos, line_end - pos);
    const bool last = !terminated || line_end + 1 >= content.size();

    if (!terminated) {
      // A torn append: the crash hit mid-line. Never trusted, even if it
      // happens to parse — the bytes after the fsync'd prefix are garbage.
      drop_reason = "unterminated trailing line";
      break;
    }
    Result<CellRecord> parsed = ParseCellRecord(line);
    if (!parsed.ok()) {
      if (parsed.status().code() == StatusCode::kFailedPrecondition) {
        // Schema-version mismatch: refuse the whole file, the caller must
        // not silently recompute cells a newer/older writer produced.
        return parsed.status();
      }
      if (last) {
        drop_reason = parsed.status().message();
        break;
      }
      return Status::DataLoss("corrupt checkpoint record (line not last): " +
                              parsed.status().message() + ": " + path_);
    }
    const CellRecord& record = *parsed;
    if (record.kind == "header") {
      if (experiment_.empty()) {
        experiment_ = record.experiment;
      } else if (experiment_ != record.experiment) {
        return Status::FailedPrecondition(
            "checkpoint mixes experiments: " + experiment_ + " vs " +
            record.experiment + ": " + path_);
      }
    } else {
      const std::string key =
          CellKey(record.scope, record.cell.dataset, record.cell.variant);
      if (cells_.find(key) != cells_.end()) {
        CREW_LOG(Warning) << "checkpoint " << path_
                          << ": duplicate cell " << key << "; keeping first";
      } else {
        cells_.emplace(key, record.cell);
      }
    }
    has_records_ = true;
    good_end = line_end + 1;
    pos = line_end + 1;
  }

  if (!drop_reason.empty()) {
    CREW_LOG(Warning) << "checkpoint " << path_
                      << ": dropping torn trailing line (" << drop_reason
                      << "); truncating to last complete record";
    // Rewrite the good prefix so future appends extend complete records
    // only. (A plain O_APPEND after the torn bytes would corrupt the file
    // permanently.)
    std::FILE* w = std::fopen(path_.c_str(), "wb");
    if (w == nullptr) return FileError("cannot truncate", path_);
    if (good_end > 0 &&
        std::fwrite(content.data(), 1, good_end, w) != good_end) {
      std::fclose(w);
      return FileError("truncate write failed", path_);
    }
    const Status synced = FlushAndSync(w, path_);
    std::fclose(w);
    CREW_RETURN_IF_ERROR(synced);
  }
  return Status::Ok();
}

const ExperimentCell* CheckpointStore::Restored(const std::string& key) const {
  const auto it = cells_.find(key);
  return it == cells_.end() ? nullptr : &it->second;
}

Status CheckpointStore::EnsureOpenForAppend() {
  if (file_ != nullptr) return Status::Ok();
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::NotFound("cannot open for append: " + path_);
  }
  return Status::Ok();
}

Status CheckpointStore::Append(const std::string& scope,
                               const ExperimentCell& cell) {
  const std::string key = CellKey(scope, cell.dataset, cell.variant);
  if (cells_.count(key) > 0) return Status::Ok();  // idempotent replay
  CREW_RETURN_IF_ERROR(EnsureOpenForAppend());
  CREW_RETURN_IF_ERROR(WriteLine(file_, CellToJsonl(scope, cell), path_));
  cells_.emplace(key, cell);
  has_records_ = true;
  return Status::Ok();
}

Status CheckpointStore::WriteHeaderIfNew(const ExperimentResult& header) {
  if (has_records_) {
    if (experiment_.empty()) {
      experiment_ = header.name;  // cells-only shard; adopt the name
      return Status::Ok();
    }
    if (experiment_ != header.name) {
      return Status::FailedPrecondition(
          "checkpoint " + path_ + " belongs to experiment '" + experiment_ +
          "', refusing to resume '" + header.name + "'");
    }
    return Status::Ok();
  }
  CREW_RETURN_IF_ERROR(EnsureOpenForAppend());
  CREW_RETURN_IF_ERROR(WriteLine(file_, HeaderToJsonl(header), path_));
  experiment_ = header.name;
  has_records_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

void FaultInjector::ArmAfterCells(int cells) {
  fail_after_ = cells < 0 ? -1 : cells;
  seed_armed_ = false;
}

void FaultInjector::ArmFromSeed(uint64_t seed) {
  seed_ = seed;
  seed_armed_ = true;
  fail_after_ = -1;
}

Result<std::unique_ptr<FaultInjector>> FaultInjector::FromFlagsAndEnv(
    int fail_after_cells) {
  std::unique_ptr<FaultInjector> injector;
  if (fail_after_cells >= 0) {
    injector = std::make_unique<FaultInjector>();
    injector->ArmAfterCells(fail_after_cells);
  } else if (const char* env = std::getenv("CREW_FAULT_SEED")) {
    uint64_t seed = 0;
    if (!ParseUint64(env, &seed)) {
      return Status::InvalidArgument(
          std::string("CREW_FAULT_SEED is not a uint64: '") + env + "'");
    }
    injector = std::make_unique<FaultInjector>();
    injector->ArmFromSeed(seed);
  }
  if (injector != nullptr && std::getenv("CREW_FAULT_HARD") != nullptr) {
    injector->set_hard(true);
  }
  return injector;
}

void FaultInjector::FinalizeSchedule(int total_cells) {
  if (!seed_armed_ || fail_after_ >= 0) return;
  // Uniform over [0, total): the injector always fires somewhere inside
  // the grid, including "before the very first cell".
  fail_after_ = Rng(seed_).UniformInt(total_cells < 1 ? 1 : total_cells);
  CREW_LOG(Info) << "CREW_FAULT_SEED=" << seed_ << " arms fault after "
                 << fail_after_ << " cell(s)";
}

bool FaultInjector::FireNow() {
  if (fail_after_ < 0 || completed_ < fail_after_) return false;
  CREW_LOG(Warning) << "fault injector firing after " << completed_
                    << " completed cell(s)";
  if (hard_) std::_Exit(kFaultExitCode);
  return true;
}

Status FaultInjector::FaultStatus() const {
  return Status::Internal("fault injected after " +
                          std::to_string(completed_) + " cell(s)");
}

// ---------------------------------------------------------------------------
// CellStreamer
// ---------------------------------------------------------------------------

Status CellStreamer::Begin(const ExperimentResult& header, int total_cells) {
  if (hooks_.checkpoint != nullptr) {
    CREW_RETURN_IF_ERROR(hooks_.checkpoint->WriteHeaderIfNew(header));
  }
  if (hooks_.fault != nullptr) hooks_.fault->FinalizeSchedule(total_cells);
  for (StreamingSink* sink : hooks_.sinks) {
    CREW_RETURN_IF_ERROR(sink->OnBegin(header));
  }
  return Status::Ok();
}

Result<bool> CellStreamer::TryRestore(const std::string& dataset,
                                      const std::string& variant,
                                      ExperimentCell* cell) {
  if (hooks_.checkpoint == nullptr) return false;
  const ExperimentCell* restored =
      hooks_.checkpoint->Restored(CellKey(hooks_.scope, dataset, variant));
  if (restored == nullptr) return false;
  *cell = *restored;
  if (StableTiming()) ZeroCellTimings(cell);
  for (StreamingSink* sink : hooks_.sinks) {
    CREW_RETURN_IF_ERROR(sink->OnCell(*cell, /*restored=*/true));
  }
  return true;
}

Status CellStreamer::BeforeFreshCell() {
  if (hooks_.fault != nullptr && hooks_.fault->FireNow()) {
    return hooks_.fault->FaultStatus();
  }
  return Status::Ok();
}

Status CellStreamer::Emit(const ExperimentCell& cell) {
  if (hooks_.checkpoint != nullptr) {
    CREW_RETURN_IF_ERROR(hooks_.checkpoint->Append(hooks_.scope, cell));
  }
  for (StreamingSink* sink : hooks_.sinks) {
    CREW_RETURN_IF_ERROR(sink->OnCell(cell, /*restored=*/false));
  }
  if (hooks_.fault != nullptr) hooks_.fault->CellCompleted();
  return Status::Ok();
}

Status CellStreamer::Finish(const ExperimentResult& result) {
  for (StreamingSink* sink : hooks_.sinks) {
    CREW_RETURN_IF_ERROR(sink->OnEnd(result));
  }
  return Status::Ok();
}

Status ReplayResult(StreamingSink& sink, const ExperimentResult& result) {
  CREW_RETURN_IF_ERROR(sink.OnBegin(result));
  for (const ExperimentCell& cell : result.cells) {
    CREW_RETURN_IF_ERROR(sink.OnCell(cell, /*restored=*/false));
  }
  return sink.OnEnd(result);
}

}  // namespace crew
