#include "crew/eval/sinks.h"

#include <cstdio>
#include <utility>

namespace crew {

TableColumn AggColumn(std::string header, double ExplainerAggregate::*field,
                      int precision) {
  return {std::move(header), [field, precision](const ExperimentCell& cell) {
            return Table::Num(cell.aggregate.*field, precision);
          }};
}

TableColumn MetricColumn(std::string header, std::string key, int precision) {
  return {std::move(header),
          [key = std::move(key), precision](const ExperimentCell& cell) {
            for (const auto& [k, v] : cell.metrics) {
              if (k == key) return Table::Num(v, precision);
            }
            return std::string("-");
          }};
}

TableColumn NoteColumn(std::string header, std::string key) {
  return {std::move(header), [key = std::move(key)](const ExperimentCell& cell) {
            for (const auto& [k, v] : cell.notes) {
              if (k == key) return v;
            }
            return std::string("-");
          }};
}

TableColumn RegistryCountColumn(std::string header, std::string metric) {
  return {std::move(header),
          [metric = std::move(metric)](const ExperimentCell& cell) {
            const MetricEntry* entry = FindMetric(cell.registry, metric);
            return std::to_string(entry == nullptr ? 0 : entry->count);
          }};
}

TableColumn RegistryMsColumn(std::string header, std::string metric,
                             int precision) {
  return {std::move(header),
          [metric = std::move(metric), precision](const ExperimentCell& cell) {
            const MetricEntry* entry = FindMetric(cell.registry, metric);
            return Table::Num(entry == nullptr ? 0.0 : entry->total_ms,
                              precision);
          }};
}

Table MetricsSnapshotTable(const MetricsSnapshot& snapshot) {
  Table table({"metric", "count", "ms"});
  for (const MetricEntry& entry : snapshot) {
    std::vector<std::string> row;
    row.push_back(entry.name);
    row.push_back(std::to_string(entry.count));
    row.push_back(entry.kind == MetricKind::kDuration
                      ? Table::Num(entry.total_ms, 1)
                      : "-");
    table.AddRow(std::move(row));
  }
  return table;
}

void PrintSummedMetrics(const std::vector<ExperimentCell>& cells,
                        std::FILE* out) {
  std::vector<MetricsSnapshot> deltas;
  deltas.reserve(cells.size());
  for (const ExperimentCell& cell : cells) deltas.push_back(cell.registry);
  // MetricsSum merges by sorted key, so this table is identical no matter
  // in which order the cells arrived (canonical, shuffled, or a resumed
  // run's restored-then-fresh order).
  const MetricsSnapshot total = MetricsSum(deltas);
  if (total.empty()) return;
  // crew-lint: allow(raw-stdio): the summed table is part of the
  // experiment's printed product on the caller-supplied stream, not
  // diagnostics.
  std::fprintf(out, "-- metrics (summed over cells) --\n%s\n",
               MetricsSnapshotTable(total).ToAligned().c_str());
}

Table MakeCellTable(const std::vector<ExperimentCell>& cells,
                    const std::vector<TableColumn>& columns,
                    bool dataset_column, bool variant_column) {
  std::vector<std::string> headers;
  if (dataset_column) headers.push_back("dataset");
  if (variant_column) headers.push_back("variant");
  for (const TableColumn& c : columns) headers.push_back(c.header);
  Table table(std::move(headers));
  for (const ExperimentCell& cell : cells) {
    std::vector<std::string> row;
    if (dataset_column) row.push_back(cell.dataset);
    if (variant_column) row.push_back(cell.variant);
    for (const TableColumn& c : columns) row.push_back(c.format(cell));
    table.AddRow(std::move(row));
  }
  return table;
}

Status TableSink::OnBegin(const ExperimentResult& header) {
  include_metrics_ = header.include_metrics;
  cells_.clear();
  return Status::Ok();
}

Status TableSink::OnCell(const ExperimentCell& cell, bool restored) {
  (void)restored;
  cells_.push_back(cell);
  return Status::Ok();
}

Status TableSink::OnEnd(const ExperimentResult& result) {
  (void)result;  // rendered purely from what crossed the stream
  const Table table =
      MakeCellTable(cells_, columns_, dataset_column_, variant_column_);
  // crew-lint: allow(raw-stdio): sinks write the experiment's *product*
  // (aligned tables) to the caller-supplied stream; this is serialized
  // output, not diagnostics.
  std::fprintf(out_, "%s\n", table.ToAligned().c_str());
  if (include_metrics_) PrintSummedMetrics(cells_, out_);
  cells_.clear();
  return Status::Ok();
}

PartialTableSink::PartialTableSink(std::vector<TableColumn> columns,
                                   std::FILE* out)
    : columns_(std::move(columns)), out_(out) {
  if (columns_.empty()) {
    columns_.push_back({"inst", [](const ExperimentCell& cell) {
                          return std::to_string(cell.aggregate.instances);
                        }});
    columns_.push_back(AggColumn("aopc", &ExplainerAggregate::aopc));
    columns_.push_back({"wall_ms", [](const ExperimentCell& cell) {
                          return Table::Num(cell.wall_ms, 1);
                        }});
  }
}

Status PartialTableSink::OnBegin(const ExperimentResult& header) {
  expected_cells_ = static_cast<int>(header.cells.size());
  cells_.clear();
  return Status::Ok();
}

Status PartialTableSink::OnCell(const ExperimentCell& cell, bool restored) {
  (void)restored;
  cells_.push_back(cell);
  const Table table = MakeCellTable(cells_, columns_);
  // crew-lint: allow(raw-stdio): live progress table on the
  // caller-supplied stream (stderr by default), deliberately outside the
  // severity-tagged logging channel like the runner heartbeats.
  std::fprintf(out_, "-- partial: %d/%d cell(s) --\n%s\n",
               static_cast<int>(cells_.size()),
               expected_cells_ > 0 ? expected_cells_
                                   : static_cast<int>(cells_.size()),
               table.ToAligned().c_str());
  return Status::Ok();
}

std::string ExperimentResultToJson(const ExperimentResult& result) {
  std::string out = "{\"header\":";
  out += HeaderToJsonl(result);
  out += ",\"cells\":[";
  for (size_t i = 0; i < result.cells.size(); ++i) {
    if (i > 0) out += ',';
    if (result.include_metrics) {
      out += CellToJsonl("", result.cells[i]);
    } else {
      ExperimentCell cell = result.cells[i];
      cell.registry.clear();
      out += CellToJsonl("", cell);
    }
  }
  out += "]}";
  return out;
}

Status WriteExperimentJson(const ExperimentResult& result,
                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  const std::string json = ExperimentResultToJson(result);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != json.size() || !flushed) {
    return Status::DataLoss("short write: " + path);
  }
  return Status::Ok();
}

}  // namespace crew
