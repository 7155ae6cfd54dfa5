// Tests for the model persistence layer (src/io/model_io) and the facade's
// SaveModel/LoadModel — the train-once / serve-many contract:
//
//  1. a save/load round trip reproduces the OfflineModel bitwise
//     (core::OfflineModelsIdentical, which compares configs, full placement
//     profiles, category centers, the training sequence, and the trained
//     forecaster's parameters);
//  2. ingestion from a loaded model is bitwise-equal to ingestion from the
//     in-memory model on every EngineResult field including the trace —
//     which also gates that the forecaster's Adam optimizer state survives
//     the round trip (online fine-tuning at plan boundaries would diverge
//     otherwise);
//  3. corrupted / truncated / wrong-version / wrong-magic / crafted files
//     fail with kInvalidArgument — no crashes — in all three formats that
//     share the io/wire container (model, fleet checkpoint, serve
//     checkpoint), and a failed facade LoadModel leaves the previous model
//     untouched; fixed fleet and serve checkpoints keep pinned bytes;
//  4. facade precondition paths: SaveModel without a model, LoadModel as a
//     full substitute for Fit().

#include "io/model_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/skyscraper.h"
#include "core/engine.h"
#include "core/offline.h"
#include "io/atomic_file.h"
#include "io/checkpoint_io.h"
#include "serve/registry.h"
#include "workloads/ev_counting.h"

namespace sky::io {
namespace {

core::OfflineOptions FastOffline() {
  core::OfflineOptions opts;
  opts.segment_seconds = 4.0;
  opts.train_horizon = Days(4);
  opts.num_categories = 3;
  opts.forecaster.input_span = Days(1);
  opts.forecaster.planned_interval = Days(1);
  return opts;
}

/// One shared fitted model per suite (the offline fit dominates test time).
const core::OfflineModel& FittedModel() {
  static const core::OfflineModel* model = [] {
    workloads::EvCountingWorkload job;
    sim::ClusterSpec cluster;
    cluster.cores = 4;
    sim::CostModel cost_model(1.8);
    auto fitted =
        core::RunOfflinePhase(job, cluster, cost_model, FastOffline());
    EXPECT_TRUE(fitted.ok()) << fitted.status().ToString();
    return new core::OfflineModel(std::move(fitted).value());
  }();
  return *model;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string Serialized(const std::string& annotation = "EV-COUNT") {
  std::string bytes;
  Status st = SerializeOfflineModel(FittedModel(), annotation, &bytes);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return bytes;
}

TEST(ModelIoTest, RoundTripIsBitwiseIdentical) {
  std::string bytes = Serialized();
  std::string annotation;
  auto loaded = DeserializeOfflineModel(bytes, &annotation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(annotation, "EV-COUNT");
  EXPECT_TRUE(core::OfflineModelsIdentical(FittedModel(), *loaded));
  // Informational fields outside OfflineModelsIdentical round-trip too.
  EXPECT_EQ(loaded->step_runtimes.filter_configs_s,
            FittedModel().step_runtimes.filter_configs_s);
  EXPECT_EQ(loaded->step_runtimes.forecast_training_s,
            FittedModel().step_runtimes.forecast_training_s);
  ASSERT_TRUE(loaded->forecaster.has_value());
  EXPECT_EQ(loaded->forecaster->train_report().best_val_loss,
            FittedModel().forecaster->train_report().best_val_loss);
  EXPECT_EQ(loaded->forecaster->train_report().train_loss_per_epoch,
            FittedModel().forecaster->train_report().train_loss_per_epoch);
}

TEST(ModelIoTest, SerializationIsDeterministic) {
  EXPECT_EQ(Serialized(), Serialized());
}

TEST(ModelIoTest, LoadedModelIngestsBitwiseEqually) {
  std::string bytes = Serialized();
  auto loaded = DeserializeOfflineModel(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  workloads::EvCountingWorkload job;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);
  core::EngineOptions opts;
  opts.duration = Days(1);
  opts.plan_interval = Hours(6);  // several boundaries -> online fine-tunes
  opts.cloud_budget_usd_per_interval = 0.5;
  opts.record_trace = true;

  core::IngestionEngine from_memory(&job, &FittedModel(), cluster,
                                    &cost_model, opts);
  auto memory_run = from_memory.Run(Days(4));
  ASSERT_TRUE(memory_run.ok()) << memory_run.status().ToString();

  core::IngestionEngine from_file(&job, &*loaded, cluster, &cost_model, opts);
  auto file_run = from_file.Run(Days(4));
  ASSERT_TRUE(file_run.ok()) << file_run.status().ToString();

  // Bitwise on every field including the trace. Online forecaster updates
  // are on (the default), so this fails unless the Adam moments and step
  // counter survived serialization exactly.
  EXPECT_TRUE(core::EngineResultsIdentical(*memory_run, *file_run));
  EXPECT_GT(memory_run->segments, 0u);
}

// --- Hostile bytes, for every container format -----------------------------
//
// The model file, the fleet checkpoint and the serve checkpoint share one
// checksummed chunk container (io/wire). Every case below runs against all
// three decoders; the crafted inputs carry a valid CSUM trailer, so the
// structural checks themselves must refuse them.

/// FNV-1a-64, re-implemented so tests can forge files with valid trailers.
uint64_t TestFnv(const std::string& s, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(s[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Byte offset of the chunk with `tag` (pointing at the tag itself), and its
/// payload size; npos when absent.
size_t FindChunk(const std::string& bytes, const char* tag, uint64_t* size) {
  size_t pos = 16;
  while (pos + 12 <= bytes.size()) {
    uint64_t chunk_size = 0;
    std::memcpy(&chunk_size, bytes.data() + pos + 4, 8);
    if (std::memcmp(bytes.data() + pos, tag, 4) == 0) {
      *size = chunk_size;
      return pos;
    }
    pos += 12 + chunk_size;
  }
  return std::string::npos;
}

/// One encoded chunk: tag, u64 payload size, payload.
std::string Chunk(const char* tag, const std::string& payload) {
  std::string out(tag, 4);
  uint64_t size = payload.size();
  out.append(reinterpret_cast<const char*>(&size), 8);
  return out + payload;
}

/// A CSUM chunk over the whole of `body`.
std::string ChecksumChunk(const std::string& body) {
  uint64_t checksum = TestFnv(body, body.size());
  return Chunk("CSUM",
               std::string(reinterpret_cast<const char*>(&checksum), 8));
}

/// Replaces the trailing CSUM chunk with one matching the (tampered) body.
std::string WithRebuiltChecksum(std::string bytes) {
  uint64_t csum_size = 0;
  size_t csum_at = FindChunk(bytes, "CSUM", &csum_size);
  EXPECT_NE(csum_at, std::string::npos);
  bytes.resize(csum_at);
  return bytes + ChecksumChunk(bytes);
}

/// A fixed fleet checkpoint: one healthy stream with (opaque) engine state,
/// one quarantined stream without.
FleetCheckpoint LiteralFleet() {
  FleetCheckpoint ckpt;
  StreamCheckpoint healthy;
  healthy.has_state = true;
  healthy.state = "opaque engine state";
  ckpt.streams.push_back(healthy);
  StreamCheckpoint quarantined;
  quarantined.status = Status::Internal("stream quarantined");
  ckpt.streams.push_back(quarantined);
  return ckpt;
}

/// A fixed serve checkpoint: a running, a failed and a finished session,
/// with LiteralFleet embedded.
serve::ServeCheckpoint LiteralServe() {
  serve::ServeCheckpoint ckpt;
  ckpt.next_session_id = 4;
  ckpt.sessions_accepted = 3;
  ckpt.sessions_rejected = 1;
  ckpt.shared_budget_core_s_per_video_s = 2.5;
  serve::SessionRecord running;
  running.id = 1;
  running.spec.content_seed = 7;
  running.stream_index = 0;
  ckpt.sessions.push_back(running);
  serve::SessionRecord failed;
  failed.id = 2;
  failed.state = serve::SessionState::kFailed;
  failed.stream_index = 1;
  failed.error = Status::ResourceExhausted("over budget");
  ckpt.sessions.push_back(failed);
  serve::SessionRecord done;
  done.id = 3;
  done.state = serve::SessionState::kDone;
  done.stream_index = 2;
  done.result.total_quality = 10.5;
  done.result.mean_quality = 0.875;
  done.result.segments = 12;
  done.result.cloud_usd = 0.25;
  core::TracePoint point;
  point.t = 300.0;
  point.quality = 0.75;
  point.config_idx = 3;
  point.category = 1;
  done.result.trace.push_back(point);
  ckpt.sessions.push_back(done);
  EXPECT_TRUE(
      SerializeFleetCheckpoint(LiteralFleet(), &ckpt.fleet_bytes).ok());
  return ckpt;
}

struct ContainerCase {
  const char* name;
  std::function<std::string()> pristine;
  std::function<Status(const std::string&)> decode;
  /// A chunk the format allows once, whose payload has a fixed shape.
  const char* once_tag;
};

void PrintTo(const ContainerCase& c, std::ostream* os) { *os << c.name; }

std::vector<ContainerCase> ContainerCases() {
  return {
      {"model", [] { return Serialized(); },
       [](const std::string& b) { return DeserializeOfflineModel(b).status(); },
       "RTIM"},
      {"fleet",
       [] {
         std::string b;
         EXPECT_TRUE(SerializeFleetCheckpoint(LiteralFleet(), &b).ok());
         return b;
       },
       [](const std::string& b) { return ParseFleetCheckpoint(b).status(); },
       "META"},
      {"serve",
       [] {
         std::string b;
         EXPECT_TRUE(serve::SerializeServeCheckpoint(LiteralServe(), &b).ok());
         return b;
       },
       [](const std::string& b) {
         return serve::ParseServeCheckpoint(b).status();
       },
       "META"},
  };
}

class ContainerDecodeTest : public ::testing::TestWithParam<ContainerCase> {
 protected:
  /// The decoder must refuse `bytes` with kInvalidArgument (and not crash);
  /// `word`, when given, must appear in the message.
  void ExpectRefused(const std::string& bytes, const std::string& what,
                     const char* word = nullptr) {
    Status st = GetParam().decode(bytes);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << what << ": " << st.ToString();
    if (word != nullptr) {
      EXPECT_NE(st.message().find(word), std::string::npos)
          << what << ": " << st.ToString();
    }
  }
};

TEST_P(ContainerDecodeTest, PristineBytesDecode) {
  Status st = GetParam().decode(GetParam().pristine());
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_P(ContainerDecodeTest, RejectsWrongMagic) {
  std::string bytes = GetParam().pristine();
  bytes[0] = 'X';
  ExpectRefused(WithRebuiltChecksum(bytes), "bad magic");
}

TEST_P(ContainerDecodeTest, RejectsBadVersionOrEndianMarker) {
  std::string bytes = GetParam().pristine();
  bytes[8] = static_cast<char>(bytes[8] + 1);  // u32 version LSB
  ExpectRefused(WithRebuiltChecksum(bytes), "version + 1", "version");

  bytes = GetParam().pristine();
  std::swap(bytes[12], bytes[15]);  // the marker a big-endian writer leaves
  std::swap(bytes[13], bytes[14]);
  ExpectRefused(WithRebuiltChecksum(bytes), "byte-swapped endian marker");
}

TEST_P(ContainerDecodeTest, RejectsFlippedByteAnywhere) {
  std::string pristine = GetParam().pristine();
  // A corrupted byte anywhere in the payload must trip the checksum (or an
  // earlier structural check) — sample positions across the whole file.
  size_t stride = std::max<size_t>(1, pristine.size() / 37);
  for (size_t pos = 16; pos < pristine.size(); pos += stride) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5a);
    ExpectRefused(bytes, "flip at " + std::to_string(pos));
  }
}

TEST_P(ContainerDecodeTest, RejectsTruncationAtEveryBoundary) {
  std::string pristine = GetParam().pristine();
  // Every strict prefix is invalid (the checksum trailer is missing or the
  // chunk table is cut short). Sample a spread of truncation points plus
  // the pathological tiny ones.
  for (size_t keep : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15},
                      size_t{16}, size_t{17}, pristine.size() / 3,
                      pristine.size() / 2, pristine.size() - 9,
                      pristine.size() - 1}) {
    ExpectRefused(pristine.substr(0, keep),
                  "truncation to " + std::to_string(keep));
  }
}

TEST_P(ContainerDecodeTest, RejectsDuplicateChunkEvenWithValidChecksum) {
  std::string bytes = GetParam().pristine();
  uint64_t size = 0;
  size_t at = FindChunk(bytes, GetParam().once_tag, &size);
  ASSERT_NE(at, std::string::npos);
  bytes.insert(at, bytes.substr(at, 12 + size));
  ExpectRefused(WithRebuiltChecksum(bytes), "duplicate chunk", "duplicate");
}

TEST_P(ContainerDecodeTest, RejectsUnknownTag) {
  std::string bytes = GetParam().pristine();
  uint64_t size = 0;
  size_t csum_at = FindChunk(bytes, "CSUM", &size);
  ASSERT_NE(csum_at, std::string::npos);
  bytes.insert(csum_at, Chunk("ZZZZ", ""));
  ExpectRefused(WithRebuiltChecksum(bytes), "unknown tag");
}

TEST_P(ContainerDecodeTest, RejectsChunkWithTrailingBytes) {
  std::string bytes = GetParam().pristine();
  uint64_t size = 0;
  size_t at = FindChunk(bytes, GetParam().once_tag, &size);
  ASSERT_NE(at, std::string::npos);
  std::string padded = bytes.substr(at + 12, size) + '\0';
  bytes.replace(at, 12 + size, Chunk(GetParam().once_tag, padded));
  ExpectRefused(WithRebuiltChecksum(bytes), "trailing byte");
}

TEST_P(ContainerDecodeTest, RejectsChunkSizePastEof) {
  std::string bytes = GetParam().pristine();
  uint64_t size = 0;
  size_t csum_at = FindChunk(bytes, "CSUM", &size);
  ASSERT_NE(csum_at, std::string::npos);
  // A chunk declaring far more bytes than the file holds, followed by a
  // CSUM that is correct for everything before it.
  std::string body = bytes.substr(0, csum_at) + Chunk("ZZZZ", "");
  uint64_t huge = uint64_t{1} << 40;
  std::memcpy(&body[body.size() - 8], &huge, 8);
  ExpectRefused(body + ChecksumChunk(body), "size past EOF");
}

TEST_P(ContainerDecodeTest, RejectsChecksumChunkThatIsNotLast) {
  std::string pristine = GetParam().pristine();
  // A CSUM valid for the header alone, followed by the real chunks.
  std::string header = pristine.substr(0, 16);
  ExpectRefused(header + ChecksumChunk(header) + pristine.substr(16),
                "early CSUM");
  // A well-formed container with one more chunk after its trailer.
  ExpectRefused(pristine + Chunk("ZZZZ", ""), "chunk after CSUM");
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, ContainerDecodeTest, ::testing::ValuesIn(ContainerCases()),
    [](const ::testing::TestParamInfo<ContainerCase>& info) {
      return std::string(info.param.name);
    });

TEST(ContainerFormatTest, LiteralCheckpointsKeepTheirBytes) {
  // Sizes and FNV-1a-64 digests of the fixed checkpoints, recorded when
  // each format still had its own container code. A change here is a
  // format change: bump the version (docs/model_format.md).
  std::string fleet;
  ASSERT_TRUE(SerializeFleetCheckpoint(LiteralFleet(), &fleet).ok());
  EXPECT_EQ(fleet.size(), 175u);
  EXPECT_EQ(TestFnv(fleet, fleet.size()), 0x9c67d55abf737723ull);
  std::string served;
  ASSERT_TRUE(serve::SerializeServeCheckpoint(LiteralServe(), &served).ok());
  EXPECT_EQ(served.size(), 878u);
  EXPECT_EQ(TestFnv(served, served.size()), 0x2ea2af7c260d5cfaull);
}

TEST(ModelIoTest, RejectsImpossibleCountsWithoutAllocating) {
  // A crafted-but-checksummed CATG chunk declaring absurd matrix shapes
  // must fail cleanly — not attempt the 2^63-row allocation. The CATG
  // payload starts with u32 backend, u64 rows, u64 cols.
  for (auto [rows, cols] :
       {std::pair<uint64_t, uint64_t>{1ull << 63, 4},
        {1ull << 62, 0},                  // zero-width rows, huge count
        {1, (1ull << 61) + 1}}) {         // cols * 8 wraps around
    std::string bytes = Serialized();
    uint64_t catg_size = 0;
    size_t catg_at = FindChunk(bytes, "CATG", &catg_size);
    ASSERT_NE(catg_at, std::string::npos);
    std::memcpy(&bytes[catg_at + 12 + 4], &rows, 8);
    std::memcpy(&bytes[catg_at + 12 + 4 + 8], &cols, 8);
    bytes = WithRebuiltChecksum(std::move(bytes));
    auto loaded = DeserializeOfflineModel(bytes);
    EXPECT_FALSE(loaded.ok()) << "rows=" << rows << " cols=" << cols;
  }
}

TEST(ModelIoTest, LoadMissingFileIsNotFound) {
  auto loaded = LoadOfflineModel("/nonexistent/sky_model.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ModelIoTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/sky_model_io_test.bin";
  Status saved = SaveOfflineModel(FittedModel(), path, "EV-COUNT");
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  std::string annotation;
  auto loaded = LoadOfflineModel(path, &annotation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(annotation, "EV-COUNT");
  EXPECT_TRUE(core::OfflineModelsIdentical(FittedModel(), *loaded));
  std::remove(path.c_str());
}

TEST(ModelIoTest, InjectedWriteFailureLeavesExistingFileIntact) {
  std::string path = ::testing::TempDir() + "/sky_model_atomic_test.bin";
  ASSERT_TRUE(SaveOfflineModel(FittedModel(), path, "EV-COUNT").ok());
  std::string before = ReadWholeFile(path);
  ASSERT_FALSE(before.empty());

  // Fail the write after the temp file is populated but before the rename:
  // the publish step must never replace the old file with a partial one.
  SetAtomicWriteFaultHookForTest(
      [](const std::string&) { return Status::Internal("injected disk full"); });
  Status saved = SaveOfflineModel(FittedModel(), path, "OTHER-ANNOTATION");
  SetAtomicWriteFaultHookForTest(nullptr);
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kInternal);

  // Original bytes untouched, temp file cleaned up, model still loads.
  EXPECT_EQ(ReadWholeFile(path), before);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::string annotation;
  auto loaded = LoadOfflineModel(path, &annotation);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(annotation, "EV-COUNT");

  // With the hook cleared the same save goes through.
  ASSERT_TRUE(SaveOfflineModel(FittedModel(), path, "OTHER-ANNOTATION").ok());
  annotation.clear();
  ASSERT_TRUE(LoadOfflineModel(path, &annotation).ok());
  EXPECT_EQ(annotation, "OTHER-ANNOTATION");
  std::remove(path.c_str());
}

// --- Facade paths ----------------------------------------------------------

TEST(ModelIoFacadeTest, SaveModelWithoutModelIsFailedPrecondition) {
  workloads::EvCountingWorkload job;
  api::Skyscraper sky(&job);
  Status st = sky.SaveModel(::testing::TempDir() + "/never_written.bin");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ModelIoFacadeTest, LoadModelSubstitutesForFit) {
  std::string path = ::testing::TempDir() + "/sky_facade_test.bin";
  workloads::EvCountingWorkload job;
  api::Resources res;
  res.cores = 4;

  // Process 1: fit and persist.
  api::Skyscraper trainer(&job);
  trainer.SetResources(res);
  ASSERT_TRUE(trainer.Fit(FastOffline()).ok());
  ASSERT_TRUE(trainer.SaveModel(path, job.name()).ok());
  core::EngineOptions run;
  run.duration = Hours(12);
  auto fit_run = trainer.Ingest(Days(4), run);
  ASSERT_TRUE(fit_run.ok()) << fit_run.status().ToString();

  // Process 2: load instead of Fit — LoadModel before any RunOfflinePhase.
  api::Skyscraper server(&job);
  server.SetResources(res);
  EXPECT_FALSE(server.fitted());
  ASSERT_TRUE(server.LoadModel(path, job.name()).ok());
  EXPECT_TRUE(server.fitted());
  ASSERT_TRUE(server.model().ok());

  auto load_run = server.Ingest(Days(4), run);
  ASSERT_TRUE(load_run.ok()) << load_run.status().ToString();
  EXPECT_TRUE(core::EngineResultsIdentical(*fit_run, *load_run));
  std::remove(path.c_str());
}

TEST(ModelIoFacadeTest, FailedLoadKeepsPreviousModel) {
  std::string path = ::testing::TempDir() + "/sky_corrupt_test.bin";
  workloads::EvCountingWorkload job;
  api::Skyscraper sky(&job);
  api::Resources res;
  res.cores = 4;
  sky.SetResources(res);
  ASSERT_TRUE(sky.Fit(FastOffline()).ok());

  // Write a corrupted file and try to load it: the error must not disturb
  // the in-memory model (no partial state).
  ASSERT_TRUE(sky.SaveModel(path).ok());
  {
    std::string bytes = Serialized();
    bytes[bytes.size() / 2] ^= 0x11;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  Status st = sky.LoadModel(path);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(sky.fitted());
  EXPECT_TRUE(sky.model().ok());

  // Annotation mismatch is likewise refused without clobbering the model —
  // and distinguishable from corruption: the file parsed, it is just a model
  // for a different job (kFailedPrecondition, not kInvalidArgument).
  ASSERT_TRUE(sky.SaveModel(path, "EV-COUNT").ok());
  Status mismatch = sky.LoadModel(path, "COVID");
  EXPECT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sky.fitted());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sky::io
