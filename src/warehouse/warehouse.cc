#include "warehouse/warehouse.h"

#include "obs/prof.h"
#include "warehouse/format.h"
#include "warehouse/segment.h"

namespace tlsharm::warehouse {
namespace {

// Performance-plane sites (obs/prof.h): columnar encode vs durable write
// of each day's observation segment.
const obs::ProfSite kProfSegmentEncode("warehouse.segment.encode");
const obs::ProfSite kProfSegmentCommit("warehouse.segment.commit");

bool IsExperimentKind(const std::string& kind) {
  return ExperimentKindId(kind).has_value();
}

const DayStoreLayout kWarehouseLayout = {
    .name = "warehouse",
    .manifest_header = kManifestHeader,
    .day_tag = "obs",
    .segment_prefix = "obs-",
    .experiment_kind = IsExperimentKind,
    .encode_site = &kProfSegmentEncode,
    .commit_site = &kProfSegmentCommit,
};

}  // namespace

const char* ExperimentKindName(std::uint8_t experiment) {
  switch (experiment) {
    case kExperimentSessionId: return "session_id";
    case kExperimentTicket: return "ticket";
  }
  return "?";
}

std::optional<std::uint8_t> ExperimentKindId(const std::string& kind) {
  if (kind == "session_id") return kExperimentSessionId;
  if (kind == "ticket") return kExperimentTicket;
  return std::nullopt;
}

// --- WarehouseWriter --------------------------------------------------------

WarehouseWriter::WarehouseWriter(std::string dir)
    : DayStoreWriter(kWarehouseLayout, std::move(dir)) {}

std::unique_ptr<WarehouseWriter> WarehouseWriter::Create(
    const std::string& dir, std::string* error, RecoverySweep* sweep) {
  if (!ResetDirectory(kWarehouseLayout, dir, error, sweep)) return nullptr;
  return std::unique_ptr<WarehouseWriter>(new WarehouseWriter(dir));
}

std::unique_ptr<WarehouseWriter> WarehouseWriter::Resume(
    const std::string& dir, int last_day, RecoverySweep* sweep,
    std::string* error) {
  std::unique_ptr<WarehouseWriter> writer(new WarehouseWriter(dir));
  if (!writer->Reopen(last_day, sweep, error)) return nullptr;
  return writer;
}

void WarehouseWriter::Append(int day,
                             const scanner::HandshakeObservation& obs) {
  if (AdmitRow(day)) pending_.push_back(obs);
}

Bytes WarehouseWriter::EncodeDay(int day) {
  Bytes segment = EncodeObservationSegment(day, pending_);
  pending_.clear();
  return segment;
}

bool WarehouseWriter::WriteLifetime(
    const std::string& kind, const scanner::ResumptionLifetimeResult& result) {
  const auto id = ExperimentKindId(kind);
  if (!id.has_value()) {
    Latch("unknown experiment kind \"" + kind + "\"");
    return false;
  }
  return PutExperiment(kind, EncodeLifetimeSegment(*id, result),
                       result.lifetimes.size());
}

// --- Warehouse (reader) -----------------------------------------------------

std::optional<Warehouse> Warehouse::Open(const std::string& dir,
                                         std::string* error) {
  Warehouse wh;
  if (!wh.Load(kWarehouseLayout, dir, error)) return std::nullopt;
  return wh;
}

std::uint64_t Warehouse::TotalBytes() const {
  std::uint64_t total = 0;
  for (const SegmentInfo& info : days_) total += info.bytes;
  for (const SegmentInfo& info : experiments_) total += info.bytes;
  return total;
}

bool Warehouse::ForEachObservation(
    int day_min, int day_max,
    const std::function<void(const scanner::StoredObservation&)>& visit,
    std::string* error) const {
  scanner::StoredObservation stored;
  return ForEachDayRow(
      day_min, day_max, DecodeObservationSegment,
      [&](int day, const scanner::HandshakeObservation& row) {
        stored.day = day;
        stored.observation = row;
        visit(stored);
      },
      error);
}

bool Warehouse::HasExperiment(const std::string& kind) const {
  for (const SegmentInfo& info : experiments_) {
    if (info.kind == kind) return true;
  }
  return false;
}

bool Warehouse::ReadExperiment(const std::string& kind,
                               scanner::ResumptionLifetimeResult* result,
                               std::string* error) const {
  for (const SegmentInfo& info : experiments_) {
    if (info.kind != kind) continue;
    const std::string path = dir_ + "/" + info.file;
    Bytes bytes;
    if (!ReadSegment(dir_, info, &bytes, error)) return false;
    std::uint8_t experiment = 0;
    std::string decode_error;
    if (!DecodeLifetimeSegment(bytes, &experiment, result, &decode_error)) {
      if (error != nullptr) *error = path + ": " + decode_error;
      return false;
    }
    if (ExperimentKindName(experiment) != kind ||
        result->lifetimes.size() != info.rows) {
      if (error != nullptr) {
        *error = path + ": decoded experiment disagrees with manifest";
      }
      return false;
    }
    return true;
  }
  if (error != nullptr) {
    *error = "warehouse has no \"" + kind + "\" experiment table";
  }
  return false;
}

}  // namespace tlsharm::warehouse
