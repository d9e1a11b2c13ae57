#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "constraint/generator.h"
#include "datagen/profiles.h"
#include "relation/csv.h"
#include "report.h"

namespace diva_bench {

using diva::Result;
using diva::Status;

namespace {

constexpr size_t kK = 10;
constexpr size_t kAges = 60;
constexpr size_t kJobs = 40;
constexpr size_t kDiagnoses = 8;
/// Each regions constraint's lower bound as a share of its count.
constexpr uint64_t kPreserveNumerator = 7;
constexpr uint64_t kPreserveDenominator = 10;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  out << text;
  if (!out) return Status::IoError("short write to " + path);
  return Status::OK();
}

std::string SchemaText(const diva::Schema& schema) {
  std::string text;
  for (const diva::Attribute& attr : schema.attributes()) {
    const char* role =
        attr.role == diva::AttributeRole::kIdentifier          ? "id"
        : attr.role == diva::AttributeRole::kQuasiIdentifier ? "qi"
                                                               : "sensitive";
    text += attr.name + "," + role + "," +
            (attr.kind == diva::AttributeKind::kNumeric ? "num" : "cat") +
            "\n";
  }
  return text;
}

// ---- Regions shapes (regions_churn, serve_mix) ----

/// One noise-bearing row of the regions schema: AGE and JOB drawn from
/// `qi`, DIAG from `payload`.
std::string RegionsRow(size_t region, size_t group, diva::Rng* qi,
                       diva::Rng* payload) {
  char buf[64];
  const size_t age = 18 + qi->NextBounded(kAges);
  const size_t job = qi->NextBounded(kJobs);
  const size_t diag = payload->NextBounded(kDiagnoses);
  std::snprintf(buf, sizeof(buf), "r%zu,g%zu,%zu,j%zu,d%zu", region, group,
                age, job, diag);
  return buf;
}

/// Writes the regions relation, schema and Sigma. Row i sits in region
/// i % R and group 2 * region + (i / R) % 2, except the last
/// `tail_rows`, which alternate over regions 0 and 1 (serve_mix's
/// update target). Returns the per-row region and group.
Status WriteRegions(const WorkloadSpec& spec, uint64_t seed,
                    uint64_t shape_seed, size_t tail_rows,
                    const std::string& dir, std::vector<uint32_t>* region,
                    std::vector<uint32_t>* group) {
  const size_t n = spec.rows;
  const size_t regions = spec.regions;
  region->resize(n);
  group->resize(n);
  std::vector<uint64_t> region_count(regions, 0);
  std::vector<uint64_t> group_count(2 * regions, 0);
  for (size_t i = 0; i < n; ++i) {
    size_t r = i % regions;
    size_t parity = (i / regions) % 2;
    if (i >= n - tail_rows) {
      const size_t t = i - (n - tail_rows);
      r = t % 2;
      parity = (t / 2) % 2;
    }
    (*region)[i] = static_cast<uint32_t>(r);
    (*group)[i] = static_cast<uint32_t>(2 * r + parity);
    ++region_count[r];
    ++group_count[2 * r + parity];
  }

  DIVA_RETURN_IF_ERROR(WriteText(SchemaPath(dir),
                                 "REGION,qi,cat\nGROUP,qi,cat\nAGE,qi,num\n"
                                 "JOB,qi,cat\nDIAG,sensitive,cat\n"));

  diva::Rng qi(Mix(shape_seed, 0));
  diva::Rng payload(Mix(seed, 0));
  std::string csv = "REGION,GROUP,AGE,JOB,DIAG\n";
  csv.reserve(n * 24);
  for (size_t i = 0; i < n; ++i) {
    csv += RegionsRow((*region)[i], (*group)[i], &qi, &payload);
    csv += '\n';
  }
  DIVA_RETURN_IF_ERROR(WriteText(DataPath(dir), csv));

  auto lower = [](uint64_t count) {
    const uint64_t bound = count * kPreserveNumerator / kPreserveDenominator;
    return bound < kK ? kK : bound;
  };
  std::string sigma;
  char line[96];
  for (size_t r = 0; r < regions; ++r) {
    std::snprintf(line, sizeof(line), "REGION[r%zu] in [%llu,%llu]\n", r,
                  static_cast<unsigned long long>(lower(region_count[r])),
                  static_cast<unsigned long long>(region_count[r]));
    sigma += line;
    for (size_t g = 2 * r; g < 2 * r + 2; ++g) {
      std::snprintf(line, sizeof(line), "GROUP[g%zu] in [%llu,%llu]\n", g,
                    static_cast<unsigned long long>(lower(group_count[g])),
                    static_cast<unsigned long long>(group_count[g]));
      sigma += line;
    }
  }
  return WriteText(SigmaPath(dir), sigma);
}

/// regions_churn's chained deltas: each deletes `churn_rows` rows of two
/// seeded regions (half from each) and inserts one row per delete with
/// the deleted row's REGION and GROUP and fresh noise. Row ids refer to
/// the relation after the previous delta, so positions are tracked the
/// way ApplyDeltaToRelation moves them (survivors compact, inserts
/// append).
Status WriteChurnDeltas(const WorkloadSpec& spec, uint64_t seed,
                        const std::string& dir, std::vector<uint32_t> region,
                        std::vector<uint32_t> group) {
  const size_t regions = spec.regions;
  for (size_t j = 0; j < spec.deltas; ++j) {
    diva::Rng rng(Mix(seed, 100 + j));
    const size_t a = rng.NextBounded(regions);
    const size_t b = (a + 1 + rng.NextBounded(regions - 1)) % regions;
    std::vector<diva::RowId> in_a;
    std::vector<diva::RowId> in_b;
    for (size_t i = 0; i < region.size(); ++i) {
      if (region[i] == a) in_a.push_back(static_cast<diva::RowId>(i));
      if (region[i] == b) in_b.push_back(static_cast<diva::RowId>(i));
    }
    rng.Shuffle(&in_a);
    rng.Shuffle(&in_b);
    const size_t from_a = spec.churn_rows / 2;
    const size_t from_b = spec.churn_rows - from_a;
    if (in_a.size() < from_a || in_b.size() < from_b) {
      return Status::InvalidArgument("churn larger than a region");
    }
    std::vector<diva::RowId> deleted(in_a.begin(), in_a.begin() + from_a);
    deleted.insert(deleted.end(), in_b.begin(), in_b.begin() + from_b);
    std::sort(deleted.begin(), deleted.end());

    char head[96];
    std::snprintf(head, sizeof(head),
                  "# regions_churn delta %zu: regions r%zu and r%zu\n", j, a,
                  b);
    std::string text = head;
    for (diva::RowId row : deleted) text += "- " + std::to_string(row) + "\n";
    std::vector<char> gone(region.size(), 0);
    std::vector<uint32_t> inserted_region;
    std::vector<uint32_t> inserted_group;
    for (diva::RowId row : deleted) {
      gone[row] = 1;
      text += "+ " + RegionsRow(region[row], group[row], &rng, &rng) + "\n";
      inserted_region.push_back(region[row]);
      inserted_group.push_back(group[row]);
    }
    DIVA_RETURN_IF_ERROR(WriteText(DeltaPath(dir, j), text));

    std::vector<uint32_t> next_region;
    std::vector<uint32_t> next_group;
    next_region.reserve(region.size());
    next_group.reserve(group.size());
    for (size_t i = 0; i < region.size(); ++i) {
      if (gone[i]) continue;
      next_region.push_back(region[i]);
      next_group.push_back(group[i]);
    }
    next_region.insert(next_region.end(), inserted_region.begin(),
                       inserted_region.end());
    next_group.insert(next_group.end(), inserted_group.begin(),
                      inserted_group.end());
    region = std::move(next_region);
    group = std::move(next_group);
  }
  return Status::OK();
}

/// Deltas that replace the last `tail_rows` rows in place: delete them,
/// insert rows with the same REGION and GROUP and fresh noise. Applied
/// to any served base, each yields the same relation.
Status WriteTailDeltas(const WorkloadSpec& spec, uint64_t seed,
                       size_t tail_rows, const std::string& dir,
                       const std::vector<uint32_t>& region,
                       const std::vector<uint32_t>& group) {
  const size_t n = spec.rows;
  for (size_t j = 0; j < spec.deltas; ++j) {
    diva::Rng rng(Mix(seed, 1000 + j));
    std::string text = "# serve_mix delta " + std::to_string(j) + "\n";
    for (size_t i = n - tail_rows; i < n; ++i) {
      text += "- " + std::to_string(i) + "\n";
    }
    for (size_t i = n - tail_rows; i < n; ++i) {
      text += "+ " + RegionsRow(region[i], group[i], &rng, &rng) + "\n";
    }
    DIVA_RETURN_IF_ERROR(WriteText(DeltaPath(dir, j), text));
  }
  return Status::OK();
}

size_t ServeTailRows(const WorkloadSpec& spec) {
  return spec.rows >= 2048 ? 16 : 8;
}

Status WriteServe(const WorkloadSpec& spec, uint64_t seed,
                  uint64_t shape_seed, const std::string& dir) {
  std::vector<uint32_t> region;
  std::vector<uint32_t> group;
  const size_t tail = ServeTailRows(spec);
  DIVA_RETURN_IF_ERROR(
      WriteRegions(spec, seed, shape_seed, tail, dir, &region, &group));
  return WriteTailDeltas(spec, seed, tail, dir, region, group);
}

// ---- Pop-Syn ----

Status WritePopSyn(const WorkloadSpec& spec, uint64_t seed,
                   uint64_t shape_seed, const std::string& dir) {
  diva::ProfileOptions shape_options;
  shape_options.seed = shape_seed;
  shape_options.num_rows = spec.rows;
  DIVA_ASSIGN_OR_RETURN(
      diva::Relation relation,
      diva::GenerateProfile(diva::DatasetProfile::kPopSyn, shape_options));
  diva::ProfileOptions payload_options = shape_options;
  payload_options.seed = seed;
  DIVA_ASSIGN_OR_RETURN(
      diva::Relation payload,
      diva::GenerateProfile(diva::DatasetProfile::kPopSyn, payload_options));

  // Sigma is drawn from the QI shape before the payload is spliced in;
  // generate_workload's settings (profile count, min support 8).
  diva::ConstraintGenOptions gen;
  gen.count = diva::DefaultConstraintCount(diva::DatasetProfile::kPopSyn);
  gen.min_support = 8;
  gen.seed = shape_seed;
  DIVA_ASSIGN_OR_RETURN(diva::ConstraintSet constraints,
                        diva::GenerateConstraints(relation, gen));

  const diva::Schema& schema = relation.schema();
  std::vector<size_t> payload_cols;
  for (size_t c = 0; c < schema.NumAttributes(); ++c) {
    if (schema.attribute(c).role != diva::AttributeRole::kQuasiIdentifier) {
      payload_cols.push_back(c);
    }
  }
  for (diva::RowId row = 0; row < relation.NumRows(); ++row) {
    for (size_t c : payload_cols) {
      relation.Set(row, c, relation.Encode(c, payload.ValueString(row, c)));
    }
  }

  DIVA_RETURN_IF_ERROR(WriteText(SchemaPath(dir), SchemaText(schema)));
  DIVA_RETURN_IF_ERROR(diva::WriteCsvFile(relation, DataPath(dir)));
  std::string sigma = "# Pop-Syn profile, shape seed " +
                      std::to_string(shape_seed) + "\n";
  for (const diva::DiversityConstraint& constraint : constraints) {
    sigma += constraint.ToString() + "\n";
  }
  DIVA_RETURN_IF_ERROR(WriteText(SigmaPath(dir), sigma));

  // Deltas correct the sensitive payload of the last rows: QI columns
  // and row order stay put, so the re-run does the publish's work.
  const size_t n = relation.NumRows();
  const size_t tail = spec.churn_rows;
  const size_t sensitive = payload_cols.back();
  for (size_t j = 0; j < spec.deltas; ++j) {
    diva::Rng rng(Mix(seed, 2000 + j));
    std::string text = "# popsyn_100k delta " + std::to_string(j) + "\n";
    for (size_t i = n - tail; i < n; ++i) {
      text += "- " + std::to_string(i) + "\n";
    }
    for (size_t i = n - tail; i < n; ++i) {
      std::string row = "+ ";
      for (size_t c = 0; c < schema.NumAttributes(); ++c) {
        if (c > 0) row += ",";
        const diva::RowId source =
            c == sensitive ? static_cast<diva::RowId>(rng.NextBounded(n))
                           : static_cast<diva::RowId>(i);
        row += relation.ValueString(source, c);
      }
      text += row + "\n";
    }
    DIVA_RETURN_IF_ERROR(WriteText(DeltaPath(dir, j), text));
  }
  return Status::OK();
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& workload, bool tiny) {
  WorkloadSpec spec;
  spec.name = workload;
  if (workload == "popsyn_100k") {
    spec.rows = tiny ? 20000 : 100000;
    spec.deltas = 1;
    spec.churn_rows = tiny ? 16 : 64;
  } else if (workload == "regions_churn") {
    spec.rows = tiny ? 16384 : 1000000;
    spec.regions = tiny ? 16 : 64;
    spec.deltas = 3;
    spec.churn_rows = spec.rows / 200;  // 0.5% deleted + 0.5% inserted
    spec.incremental = true;
  } else if (workload == "serve_mix") {
    spec.batch = false;
    spec.rows = tiny ? 1024 : 3072;
    spec.regions = tiny ? 8 : 12;
    spec.deltas = 8;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + workload +
        "' (popsyn_100k | regions_churn | serve_mix)");
  }
  return spec;
}

std::string DataPath(const std::string& dir) { return dir + "/data.csv"; }
std::string SchemaPath(const std::string& dir) { return dir + "/schema.txt"; }
std::string SigmaPath(const std::string& dir) { return dir + "/sigma.txt"; }
std::string ProbeDir(const std::string& dir) { return dir + "/probe"; }
std::string DeltaPath(const std::string& dir, size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "/delta_%03zu.txt", index);
  return dir + name;
}

Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      uint64_t shape_seed, const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) return Status::IoError("cannot create " + dir);
  if (spec.name == "serve_mix") return WriteServe(spec, seed, shape_seed, dir);

  if (spec.name == "popsyn_100k") {
    DIVA_RETURN_IF_ERROR(WritePopSyn(spec, seed, shape_seed, dir));
  } else {
    std::vector<uint32_t> region;
    std::vector<uint32_t> group;
    DIVA_RETURN_IF_ERROR(
        WriteRegions(spec, seed, shape_seed, 0, dir, &region, &group));
    DIVA_RETURN_IF_ERROR(
        WriteChurnDeltas(spec, seed, dir, std::move(region), std::move(group)));
  }
  // The batch workloads' traced runs record the serve layer on the tiny
  // serve base.
  DIVA_ASSIGN_OR_RETURN(WorkloadSpec probe, FindWorkload("serve_mix", true));
  std::filesystem::create_directories(ProbeDir(dir), error);
  if (error) return Status::IoError("cannot create " + ProbeDir(dir));
  return WriteServe(probe, seed, shape_seed, ProbeDir(dir));
}

Result<std::string> ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Result<std::shared_ptr<const diva::Schema>> LoadSchema(
    const std::string& path) {
  std::ifstream input(path);
  if (!input) return Status::IoError("cannot open schema file: " + path);
  std::vector<diva::Attribute> attributes;
  std::string line;
  while (std::getline(input, line)) {
    std::string_view trimmed = diva::Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    auto parts = diva::Split(trimmed, ',');
    if (parts.size() != 3) {
      return Status::InvalidArgument("bad schema line: " + line);
    }
    diva::Attribute attribute;
    attribute.name = std::string(diva::Trim(parts[0]));
    const std::string role = diva::ToLowerAscii(diva::Trim(parts[1]));
    attribute.role = role == "id"   ? diva::AttributeRole::kIdentifier
                     : role == "qi" ? diva::AttributeRole::kQuasiIdentifier
                                    : diva::AttributeRole::kSensitive;
    attribute.kind = diva::ToLowerAscii(diva::Trim(parts[2])) == "num"
                         ? diva::AttributeKind::kNumeric
                         : diva::AttributeKind::kCategorical;
    attributes.push_back(std::move(attribute));
  }
  return diva::Schema::Make(std::move(attributes));
}

bool HashInputs(const std::string& dir, InputFacts* facts) {
  std::vector<std::string> names;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator(dir, error)) {
    const std::string name = entry.path().filename().string();
    const bool input = name == "data.csv" || name == "schema.txt" ||
                       name == "sigma.txt" || name.rfind("delta_", 0) == 0;
    if (entry.is_regular_file() && input) names.push_back(name);
  }
  if (error) return false;
  std::sort(names.begin(), names.end());
  uint64_t hash = Fnv1a("", 0);
  for (const std::string& name : names) {
    hash = Fnv1a(name.data(), name.size(), hash);
    uint64_t bytes = 0;
    if (!HashFile(dir + "/" + name, &hash, &bytes)) return false;
    if (name == "data.csv") facts->csv_bytes = bytes;
  }
  facts->hash = hash;
  facts->files = names.size();
  return true;
}

}  // namespace diva_bench
