#ifndef CREW_EVAL_SINKS_H_
#define CREW_EVAL_SINKS_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "crew/eval/runner.h"
#include "crew/eval/streaming.h"
#include "crew/eval/table.h"

namespace crew {

/// One table column: a header plus a formatter over a cell.
struct TableColumn {
  std::string header;
  std::function<std::string(const ExperimentCell&)> format;
};

/// Column reading a numeric ExplainerAggregate field.
TableColumn AggColumn(std::string header, double ExplainerAggregate::*field,
                      int precision = 3);

/// Column reading a named value from ExperimentCell::metrics.
TableColumn MetricColumn(std::string header, std::string key,
                         int precision = 3);

/// Column reading a named value from ExperimentCell::notes.
TableColumn NoteColumn(std::string header, std::string key);

/// Column reading a metric's count from ExperimentCell::registry. Cell
/// deltas drop all-zero metrics, so an absent metric prints as 0.
TableColumn RegistryCountColumn(std::string header, std::string metric);

/// Column reading a duration metric's total milliseconds from
/// ExperimentCell::registry (0 when absent, as above).
TableColumn RegistryMsColumn(std::string header, std::string metric,
                             int precision = 1);

/// Renders a metrics snapshot (or delta) as a name/count/ms table.
Table MetricsSnapshotTable(const MetricsSnapshot& snapshot);

/// Prints the "-- metrics (summed over cells) --" table of the cells'
/// registry deltas to `out` (nothing when every delta is empty) — the
/// block --metrics appends under a bench's tables.
void PrintSummedMetrics(const std::vector<ExperimentCell>& cells,
                        std::FILE* out);

/// Builds the aligned table for `cells` with a leading dataset and/or
/// variant column.
Table MakeCellTable(const std::vector<ExperimentCell>& cells,
                    const std::vector<TableColumn>& columns,
                    bool dataset_column = true, bool variant_column = true);

/// Prints the cell grid as an aligned table. It buffers cells in arrival
/// order and renders once at OnEnd — everything the table shows travelled
/// through the per-cell stream, so the streamed and batch paths cannot
/// drift apart. A finished result is printed with ReplayResult(table,
/// result).
class TableSink : public StreamingSink {
 public:
  explicit TableSink(std::vector<TableColumn> columns,
                     bool dataset_column = true, bool variant_column = true,
                     std::FILE* out = stdout)
      : columns_(std::move(columns)), dataset_column_(dataset_column),
        variant_column_(variant_column), out_(out) {}

  Status OnBegin(const ExperimentResult& header) override;
  Status OnCell(const ExperimentCell& cell, bool restored) override;
  Status OnEnd(const ExperimentResult& result) override;

 private:
  std::vector<TableColumn> columns_;
  bool dataset_column_;
  bool variant_column_;
  std::FILE* out_;
  bool include_metrics_ = false;
  std::vector<ExperimentCell> cells_;
};

/// Live partial-table mode for interactive (TTY) runs: after every cell it
/// re-renders the table of everything seen so far, prefixed with a
/// "-- partial: done/total --" marker, so a long grid shows its rows as
/// they land instead of going silent until the end. Pass no columns to get
/// a compact default (instances / aopc / wall ms).
class PartialTableSink : public StreamingSink {
 public:
  explicit PartialTableSink(std::vector<TableColumn> columns =
                                std::vector<TableColumn>(),
                            std::FILE* out = stderr);

  Status OnBegin(const ExperimentResult& header) override;
  Status OnCell(const ExperimentCell& cell, bool restored) override;

 private:
  std::vector<TableColumn> columns_;
  std::FILE* out_;
  int expected_cells_ = 0;
  std::vector<ExperimentCell> cells_;
};

/// The --json document: {"header":<HeaderToJsonl>,"cells":[<CellToJsonl>,
/// ...]} — the same records the JSONL stream and checkpoint carry, with
/// empty scopes. Without include_metrics each cell's registry is emptied:
/// its batch-size buckets follow the pool's chunking, so keeping them
/// would make the document differ across --threads.
std::string ExperimentResultToJson(const ExperimentResult& result);

/// Writes ExperimentResultToJson to `path`.
Status WriteExperimentJson(const ExperimentResult& result,
                           const std::string& path);

}  // namespace crew

#endif  // CREW_EVAL_SINKS_H_
