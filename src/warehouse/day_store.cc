#include "warehouse/day_store.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/prof.h"
#include "util/crc32.h"
#include "util/durable.h"
#include "warehouse/format.h"

namespace tlsharm::warehouse {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kExpPrefix = "exp-";
constexpr std::string_view kSegmentSuffix = ".seg";

bool HasPrefixSuffix(const std::string& name, std::string_view prefix,
                     std::string_view suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

// True for files the store owns: the MANIFEST, its day segments, and the
// warehouse's experiment tables and checkpoints.
bool IsStoreFile(const DayStoreLayout& layout, const std::string& name) {
  return name == kManifestName ||
         HasPrefixSuffix(name, layout.segment_prefix, kSegmentSuffix) ||
         (layout.experiment_kind != nullptr &&
          (HasPrefixSuffix(name, kExpPrefix, kSegmentSuffix) ||
           HasPrefixSuffix(name, "ckpt-", ".bin")));
}

// An interrupted atomic commit (util/durable.h) leaves `<owned file>.tmp`.
bool IsOrphanedTmp(const DayStoreLayout& layout, const std::string& name) {
  constexpr std::string_view kTmp = ".tmp";
  if (name.size() <= kTmp.size() ||
      name.compare(name.size() - kTmp.size(), kTmp.size(), kTmp) != 0) {
    return false;
  }
  return IsStoreFile(layout, name.substr(0, name.size() - kTmp.size()));
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseHex32(std::string_view text, std::uint32_t* out) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(
      text.data(), text.data() + text.size(), value, /*base=*/16);
  if (ec != std::errc() || ptr != text.data() + text.size() ||
      value > 0xffffffffull) {
    return false;
  }
  *out = static_cast<std::uint32_t>(value);
  return true;
}

// Day index of a "<prefix><day><suffix>" name, or -1.
int ParseDayFile(const std::string& name, std::string_view prefix,
                 std::string_view suffix) {
  if (!HasPrefixSuffix(name, prefix, suffix)) return -1;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  if (digits.empty()) return -1;
  std::uint64_t day = 0;
  if (!ParseU64(digits, &day) || day > 0xffff) return -1;
  return static_cast<int>(day);
}

// The MANIFEST text: the layout's header, then one line per day segment
// and per experiment table.
std::string RenderManifest(const DayStoreLayout& layout,
                           const std::vector<SegmentInfo>& days,
                           const std::vector<SegmentInfo>& experiments) {
  std::ostringstream manifest;
  // `head` names the entry: "obs day=3", "exp kind=ticket".
  const auto line = [&manifest](const std::string& head,
                                const SegmentInfo& info) {
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", info.crc);
    manifest << head << " file=" << info.file << " rows=" << info.rows
             << " bytes=" << info.bytes << " crc=" << crc << "\n";
  };
  manifest << layout.manifest_header << "\n";
  for (const SegmentInfo& info : days) {
    line(std::string(layout.day_tag) + " day=" + std::to_string(info.day),
         info);
  }
  for (const SegmentInfo& info : experiments) {
    line("exp kind=" + info.kind, info);
  }
  return manifest.str();
}

std::uint32_t TextCrc(const std::string& text) {
  return Crc32(ByteView(reinterpret_cast<const std::uint8_t*>(text.data()),
                        text.size()));
}

}  // namespace

bool ReadWarehouseFile(const std::string& path, Bytes* out,
                       std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream content;
  content << in.rdbuf();
  const std::string data = content.str();
  out->assign(data.begin(), data.end());
  return true;
}

bool ReadSegment(const std::string& dir, const SegmentInfo& info, Bytes* out,
                 std::string* error) {
  const std::string path = dir + "/" + info.file;
  if (!ReadWarehouseFile(path, out, error)) return false;
  if (out->size() != info.bytes || Crc32(*out) != info.crc) {
    if (error != nullptr) {
      *error = path + ": file does not match manifest (size/crc)";
    }
    return false;
  }
  return true;
}

// --- DayStoreReader ---------------------------------------------------------

bool DayStoreReader::Load(const DayStoreLayout& layout, const std::string& dir,
                          std::string* error) {
  const std::string path = dir + "/" + kManifestName;
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = std::string("no ") + layout.name + " manifest at " + path;
    }
    return false;
  }
  dir_ = dir;
  std::string line;
  if (!std::getline(in, line) || line != layout.manifest_header) {
    if (error != nullptr) {
      *error = path + ": unsupported manifest header \"" + line + "\"";
    }
    return false;
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = path + ":" + std::to_string(line_no);
    std::istringstream tokens(line);
    std::string type;
    tokens >> type;
    const bool experiment = layout.experiment_kind != nullptr && type == "exp";
    if (type != layout.day_tag && !experiment) {
      if (error != nullptr) *error = where + ": unknown entry \"" + type + "\"";
      return false;
    }
    SegmentInfo info;
    bool have_day = false, have_kind = false, have_file = false,
         have_rows = false, have_bytes = false, have_crc = false;
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) *error = where + ": malformed token";
        return false;
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      std::uint64_t number = 0;
      if (key == "day" && ParseU64(value, &number) && number <= 0xffff) {
        info.day = static_cast<int>(number);
        have_day = true;
      } else if (key == "kind" && layout.experiment_kind != nullptr) {
        info.kind = value;
        have_kind = true;
      } else if (key == "file" && !value.empty() &&
                 value.find('/') == std::string::npos) {
        info.file = value;
        have_file = true;
      } else if (key == "rows" && ParseU64(value, &number)) {
        info.rows = number;
        have_rows = true;
      } else if (key == "bytes" && ParseU64(value, &number)) {
        info.bytes = number;
        have_bytes = true;
      } else if (key == "crc" && ParseHex32(value, &info.crc)) {
        have_crc = true;
      } else {
        if (error != nullptr) {
          *error = where + ": bad field \"" + token + "\"";
        }
        return false;
      }
    }
    if (!have_file || !have_rows || !have_bytes || !have_crc) {
      if (error != nullptr) *error = where + ": missing fields";
      return false;
    }
    if (experiment) {
      if (!have_kind || !layout.experiment_kind(info.kind)) {
        if (error != nullptr) *error = where + ": bad experiment kind";
        return false;
      }
      experiments_.push_back(std::move(info));
      continue;
    }
    if (!have_day) {
      if (error != nullptr) *error = where + ": " + type + " entry without day";
      return false;
    }
    if (!days_.empty() && info.day <= days_.back().day) {
      if (error != nullptr) {
        *error = where + ": " + layout.name + " days not strictly increasing";
      }
      return false;
    }
    days_.push_back(std::move(info));
  }
  return true;
}

int DayStoreReader::DayCount() const {
  return days_.empty() ? 0 : days_.back().day + 1;
}

std::uint64_t DayStoreReader::TotalRows() const {
  std::uint64_t total = 0;
  for (const SegmentInfo& info : days_) total += info.rows;
  return total;
}

// --- DayStoreWriter ---------------------------------------------------------

DayStoreWriter::DayStoreWriter(const DayStoreLayout& layout, std::string dir)
    : layout_(layout), dir_(std::move(dir)) {}

bool DayStoreWriter::ResetDirectory(const DayStoreLayout& layout,
                                    const std::string& dir,
                                    std::string* error,
                                    RecoverySweep* sweep) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create " + dir + ": " + ec.message();
    }
    return false;
  }
  RecoverySweep swept;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (IsOrphanedTmp(layout, name)) {
      fs::remove(entry.path(), ec);
      ++swept.tmp_files_removed;
    } else if (IsStoreFile(layout, name)) {
      fs::remove(entry.path(), ec);
    }
  }
  if (sweep != nullptr) *sweep = swept;
  return true;
}

bool DayStoreWriter::KeptManifestCrc(const DayStoreLayout& layout,
                                     const std::string& dir, int last_day,
                                     std::uint32_t* crc, std::string* error) {
  DayStoreReader existing;
  if (!existing.Load(layout, dir, error)) return false;
  std::vector<SegmentInfo> kept;
  for (const SegmentInfo& info : existing.days_) {
    if (info.day <= last_day) kept.push_back(info);
  }
  *crc = TextCrc(RenderManifest(layout, kept, {}));
  return true;
}

bool DayStoreWriter::Reopen(int last_day, RecoverySweep* sweep,
                            std::string* error) {
  DayStoreReader existing;
  if (!existing.Load(layout_, dir_, error)) return false;
  // Verify the kept prefix BEFORE deleting anything: a resume that cannot
  // trust the surviving segments must fail loudly, not truncate.
  for (const SegmentInfo& info : existing.days_) {
    if (info.day > last_day) continue;
    Bytes bytes;
    if (!ReadSegment(dir_, info, &bytes, error)) return false;
    days_.push_back(info);
    rows_written_ += info.rows;
    bytes_written_ += info.bytes;
  }

  const bool experiments = layout_.experiment_kind != nullptr;
  RecoverySweep swept;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (IsOrphanedTmp(layout_, name)) {
      fs::remove(entry.path(), ec);
      ++swept.tmp_files_removed;
    } else if (ParseDayFile(name, layout_.segment_prefix, kSegmentSuffix) >
                   last_day ||
               (experiments &&
                HasPrefixSuffix(name, kExpPrefix, kSegmentSuffix))) {
      // A partially recorded day the journal never committed, or an
      // experiment table (rewritten when the resumed study finishes).
      fs::remove(entry.path(), ec);
      ++swept.stale_segments_removed;
    } else if (experiments && ParseDayFile(name, "ckpt-", ".bin") > last_day) {
      fs::remove(entry.path(), ec);
      ++swept.stale_checkpoints_removed;
    }
  }
  if (sweep != nullptr) *sweep = swept;

  if (!WriteManifest()) {
    if (error != nullptr) *error = error_;
    return false;
  }
  return true;
}

void DayStoreWriter::Latch(const std::string& message) {
  if (!ok_) return;
  ok_ = false;
  error_ = message;
}

bool DayStoreWriter::AdmitRow(int day) {
  if (!ok_) return false;
  if (day < 0) {
    Latch("negative day appended");
    return false;
  }
  if (current_day_ == -1) {
    if (!days_.empty() && day <= days_.back().day) {
      Latch("append day " + std::to_string(day) + " not after day " +
            std::to_string(days_.back().day));
      return false;
    }
    current_day_ = day;
  } else if (day != current_day_) {
    if (day < current_day_) {
      Latch("append days must be non-decreasing");
      return false;
    }
    FlushDay();
    if (!ok_) return false;
    current_day_ = day;
  }
  ++pending_rows_;
  return true;
}

void DayStoreWriter::CloseDay(int day) {
  if (!ok_) return;
  if (current_day_ == -1) {
    // A scanned day with no rows still gets its (empty) segment, so the
    // day axis records "scanned, saw nothing".
    if (!days_.empty() && day <= days_.back().day) {
      Latch("EndDay " + std::to_string(day) + " out of order");
      return;
    }
    current_day_ = day;
  } else if (day != current_day_) {
    Latch("EndDay " + std::to_string(day) + " while day " +
          std::to_string(current_day_) + " is open");
    return;
  }
  FlushDay();
}

void DayStoreWriter::FlushDay() {
  if (!ok_ || current_day_ == -1) return;
  const Bytes segment = [&] {
    obs::ProfScope span(*layout_.encode_site);
    return EncodeDay(current_day_);
  }();
  char file[64];
  std::snprintf(file, sizeof(file), "%s%05d.seg", layout_.segment_prefix,
                current_day_);
  SegmentInfo info;
  info.day = current_day_;
  info.file = file;
  info.rows = pending_rows_;
  obs::ProfScope commit_span(*layout_.commit_site);
  if (WriteSegmentFile(segment, &info)) {
    days_.push_back(std::move(info));
    rows_written_ += pending_rows_;
    WriteManifest();
  }
  pending_rows_ = 0;
  current_day_ = -1;
}

void DayStoreWriter::CloseStudy() {
  if (!ok_) return;
  FlushDay();
  WriteManifest();
}

bool DayStoreWriter::PutExperiment(const std::string& kind,
                                   const Bytes& segment, std::uint64_t rows) {
  if (!ok_) return false;
  SegmentInfo info;
  info.kind = kind;
  info.file = std::string(kExpPrefix) + kind + std::string(kSegmentSuffix);
  info.rows = rows;
  if (!WriteSegmentFile(segment, &info)) return false;
  for (auto& existing : experiments_) {
    if (existing.kind == kind) {
      bytes_written_ -= existing.bytes;
      existing = info;
      return WriteManifest();
    }
  }
  experiments_.push_back(info);
  return WriteManifest();
}

bool DayStoreWriter::WriteSegmentFile(const Bytes& bytes, SegmentInfo* info) {
  info->bytes = bytes.size();
  info->crc = Crc32(bytes);
  const std::string path = dir_ + "/" + info->file;
  std::string write_error;
  // Atomic temp+fsync+rename commit: a crash leaves either no segment or
  // the complete one, never a torn file the manifest could point at.
  if (!DurableWriteFile(path, bytes, &write_error)) {
    Latch("cannot write " + path + ": " + write_error);
    return false;
  }
  bytes_written_ += bytes.size();
  return true;
}

bool DayStoreWriter::WriteManifest() {
  if (!ok_) return false;
  const std::string path = dir_ + "/" + kManifestName;
  const std::string text = RenderManifest(layout_, days_, experiments_);
  const ByteView bytes(reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size());
  std::string write_error;
  if (!DurableWriteFile(path, bytes, &write_error)) {
    Latch("cannot write " + path + ": " + write_error);
    return false;
  }
  manifest_crc_ = TextCrc(text);
  return true;
}

}  // namespace tlsharm::warehouse
