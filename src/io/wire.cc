#include "io/wire.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "ml/nn.h"

namespace sky::io::wire {

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

}  // namespace

uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

void PutRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void PutU8(std::string* out, uint8_t v) { PutRaw(out, &v, 1); }
void PutU32(std::string* out, uint32_t v) { PutRaw(out, &v, sizeof(v)); }
void PutU64(std::string* out, uint64_t v) { PutRaw(out, &v, sizeof(v)); }
void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}
void PutF64(std::string* out, double v) { PutRaw(out, &v, sizeof(v)); }
void PutBool(std::string* out, bool v) { PutU8(out, v ? 1 : 0); }

void PutU64Vec(std::string* out, const std::vector<size_t>& v) {
  PutU64(out, v.size());
  for (size_t x : v) PutU64(out, x);
}

void PutF64Vec(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  if (!v.empty()) PutRaw(out, v.data(), v.size() * sizeof(double));
}

Status PutF64Rows(std::string* out,
                  const std::vector<std::vector<double>>& rows) {
  PutU64(out, rows.size());
  size_t cols = rows.empty() ? 0 : rows[0].size();
  PutU64(out, cols);
  for (const std::vector<double>& row : rows) {
    if (row.size() != cols) {
      return Status::InvalidArgument("ragged rows are not serializable");
    }
    if (!row.empty()) PutRaw(out, row.data(), row.size() * sizeof(double));
  }
  return Status::Ok();
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  PutRaw(out, s.data(), s.size());
}

void PutChunk(std::string* out, const char tag[4], const std::string& payload) {
  PutRaw(out, tag, 4);
  PutU64(out, payload.size());
  out->append(payload);
}

bool TagIs(const char tag[4], const char expected[4]) {
  return std::memcmp(tag, expected, 4) == 0;
}

Status Cursor::Read(void* out, size_t n) {
  if (n > remaining()) {
    return Status::InvalidArgument("serialized data truncated mid-field");
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status Cursor::Skip(size_t n) {
  if (n > remaining()) {
    return Status::InvalidArgument("serialized data truncated mid-chunk");
  }
  pos_ += n;
  return Status::Ok();
}

Status Cursor::ReadI64(int64_t* v) {
  uint64_t u = 0;
  SKY_RETURN_NOT_OK(ReadU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::Ok();
}

Status Cursor::ReadBool(bool* v) {
  uint8_t b = 0;
  SKY_RETURN_NOT_OK(ReadU8(&b));
  if (b > 1) {
    return Status::InvalidArgument("invalid boolean flag in serialized data");
  }
  *v = b != 0;
  return Status::Ok();
}

Status Cursor::ReadCount(size_t elem_bytes, uint64_t* count) {
  SKY_RETURN_NOT_OK(ReadU64(count));
  if (elem_bytes > 0 && *count > remaining() / elem_bytes) {
    return Status::InvalidArgument("serialized data declares impossible count");
  }
  return Status::Ok();
}

Status Cursor::ReadU64Vec(std::vector<size_t>* v) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(ReadCount(sizeof(uint64_t), &n));
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    SKY_RETURN_NOT_OK(ReadU64(&x));
    (*v)[i] = x;
  }
  return Status::Ok();
}

Status Cursor::ReadF64Vec(std::vector<double>* v) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(ReadCount(sizeof(double), &n));
  v->resize(n);
  if (n > 0) return Read(v->data(), n * sizeof(double));
  return Status::Ok();
}

Status Cursor::ReadF64Rows(std::vector<std::vector<double>>* rows) {
  uint64_t k = 0, cols = 0;
  SKY_RETURN_NOT_OK(ReadU64(&k));
  SKY_RETURN_NOT_OK(ReadU64(&cols));
  // Guard the multiplication itself, then the row count — and bound k by
  // the remaining payload even for zero-width rows, so no crafted header
  // can request an unbounded allocation.
  if (cols > remaining() / sizeof(double)) {
    return Status::InvalidArgument("serialized data declares impossible count");
  }
  uint64_t row_bytes = cols * sizeof(double);
  if (row_bytes > 0 ? k > remaining() / row_bytes : k > remaining()) {
    return Status::InvalidArgument("serialized data declares impossible count");
  }
  rows->assign(k, std::vector<double>(cols));
  for (auto& row : *rows) {
    if (cols > 0) SKY_RETURN_NOT_OK(Read(row.data(), cols * sizeof(double)));
  }
  return Status::Ok();
}

Status Cursor::ReadString(std::string* s) {
  uint64_t n = 0;
  SKY_RETURN_NOT_OK(ReadCount(1, &n));
  s->resize(n);
  if (n > 0) return Read(&(*s)[0], n);
  return Status::Ok();
}

namespace {

/// Written as a native u32; a reader on a machine with different endianness
/// sees a scrambled value and rejects the container instead of mis-parsing.
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr size_t kHeaderBytes = 16;
constexpr char kChunkChecksum[4] = {'C', 'S', 'U', 'M'};

}  // namespace

size_t Writer::BeginContainer(const ContainerFormat& format) {
  size_t start = out_->size();
  PutRaw(out_, format.magic, 8);
  PutU32(out_, format.version);
  PutU32(out_, kEndianMarker);
  return start;
}

void Writer::EndContainer(size_t start) {
  size_t end = out_->size();
  PutRaw(out_, kChunkChecksum, 4);
  PutU64(out_, sizeof(uint64_t));
  slots_.push_back({start, end, out_->size()});
  PutU64(out_, 0);
}

size_t Writer::BeginString() {
  size_t at = out_->size();
  PutU64(out_, 0);
  return at;
}

void Writer::EndString(size_t at) {
  uint64_t size = out_->size() - at - sizeof(uint64_t);
  std::memcpy(&(*out_)[at], &size, sizeof(size));
}

size_t Writer::BeginChunk(const char tag[4]) {
  PutRaw(out_, tag, 4);
  return BeginString();
}

void Writer::EndChunk(size_t at) { EndString(at); }

void Writer::PutChecksum(size_t begin) {
  slots_.push_back({begin, out_->size(), out_->size()});
  PutU64(out_, 0);
}

namespace {

/// Advances K independent FNV-1a chains over the same bytes. One chain is
/// bound by the multiply's latency; K chains in one loop overlap theirs, so
/// K nested checksums cost about what one does.
template <int K>
void HashChains(const unsigned char* p, size_t n, uint64_t* const* h) {
  uint64_t a[K];
  for (int k = 0; k < K; ++k) a[k] = *h[k];
  for (size_t i = 0; i < n; ++i) {
    const uint64_t b = p[i];
    for (int k = 0; k < K; ++k) a[k] = (a[k] ^ b) * kFnvPrime;
  }
  for (int k = 0; k < K; ++k) *h[k] = a[k];
}

}  // namespace

void Writer::Finish() {
  // Sweep the buffer once, left to right. At each slot boundary, finished
  // slots store their hash (before any enclosing chain reaches the stored
  // bytes: at >= end) and starting slots join the active set; between
  // boundaries every active chain hashes the same bytes together.
  std::sort(slots_.begin(), slots_.end(),
            [](const Slot& a, const Slot& b) { return a.begin < b.begin; });
  struct Active {
    const Slot* slot;
    uint64_t hash;
  };
  std::vector<Active> active;
  const auto* bytes = reinterpret_cast<const unsigned char*>(out_->data());
  size_t next = 0;
  size_t pos = slots_.empty() ? 0 : slots_[0].begin;
  while (next < slots_.size() || !active.empty()) {
    while (next < slots_.size() && slots_[next].begin == pos) {
      active.push_back({&slots_[next++], kFnvBasis});
    }
    size_t until = next < slots_.size() ? slots_[next].begin : out_->size();
    for (size_t i = 0; i < active.size();) {
      if (active[i].slot->end == pos) {
        std::memcpy(&(*out_)[active[i].slot->at], &active[i].hash,
                    sizeof(uint64_t));
        active[i] = active.back();
        active.pop_back();
      } else {
        until = std::min(until, active[i].slot->end);
        ++i;
      }
    }
    if (active.empty()) {
      if (next < slots_.size()) pos = slots_[next].begin;
      continue;
    }
    const size_t n = until - pos;
    for (size_t first = 0; first < active.size(); first += 4) {
      uint64_t* h[4];
      const size_t k = std::min<size_t>(4, active.size() - first);
      for (size_t j = 0; j < k; ++j) h[j] = &active[first + j].hash;
      switch (k) {
        case 1: HashChains<1>(bytes + pos, n, h); break;
        case 2: HashChains<2>(bytes + pos, n, h); break;
        case 3: HashChains<3>(bytes + pos, n, h); break;
        default: HashChains<4>(bytes + pos, n, h); break;
      }
    }
    pos = until;
  }
  slots_.clear();
}

void Writer::Reset() {
  out_->clear();
  slots_.clear();
}

Status ReadContainer(const std::string& bytes, const ContainerFormat& format,
                     const ChunkFn& chunk_fn) {
  const std::string what = format.what;
  Cursor header(bytes.data(), bytes.size());
  char magic[8];
  SKY_RETURN_NOT_OK(header.Read(magic, sizeof(magic)));
  if (std::memcmp(magic, format.magic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not a Skyscraper " + what +
                                   " (bad magic)");
  }
  uint32_t version = 0, endian = 0;
  SKY_RETURN_NOT_OK(header.ReadU32(&version));
  if (version != format.version) {
    return Status::InvalidArgument(
        "unsupported " + what + " version " + std::to_string(version) +
        " (this build reads version " + std::to_string(format.version) + ")");
  }
  SKY_RETURN_NOT_OK(header.ReadU32(&endian));
  if (endian != kEndianMarker) {
    return Status::InvalidArgument(what + " written with different byte order");
  }

  // Pass 1: walk the chunk table to the CSUM trailer and verify it covers
  // exactly the bytes before it. Nothing is parsed until the container is
  // known to be intact end to end.
  Cursor walk(bytes.data(), bytes.size());
  SKY_RETURN_NOT_OK(walk.Skip(kHeaderBytes));
  size_t body_end = 0;
  while (body_end == 0) {
    if (walk.remaining() == 0) {
      return Status::InvalidArgument(what + " missing checksum trailer");
    }
    char tag[4];
    uint64_t size = 0;
    SKY_RETURN_NOT_OK(walk.Read(tag, 4));
    SKY_RETURN_NOT_OK(walk.ReadU64(&size));
    if (!TagIs(tag, kChunkChecksum)) {
      SKY_RETURN_NOT_OK(walk.Skip(size));
      continue;
    }
    uint64_t stored = 0;
    if (size != sizeof(stored) || walk.remaining() != size) {
      return Status::InvalidArgument("malformed " + what +
                                     " checksum trailer");
    }
    body_end = walk.pos() - 12;  // bytes before the CSUM chunk
    SKY_RETURN_NOT_OK(walk.ReadU64(&stored));
    if (stored != Fnv1a64(bytes.data(), body_end)) {
      return Status::InvalidArgument(what + " checksum mismatch (corrupted)");
    }
  }

  // Pass 2: hand every chunk before the trailer to the format. Pass 1 has
  // shown that the chunks tile [header, body_end) exactly.
  Cursor c(bytes.data(), body_end);
  SKY_RETURN_NOT_OK(c.Skip(kHeaderBytes));
  while (c.remaining() > 0) {
    char tag[4];
    uint64_t size = 0;
    SKY_RETURN_NOT_OK(c.Read(tag, 4));
    SKY_RETURN_NOT_OK(c.ReadU64(&size));
    Cursor payload(bytes.data() + c.pos(), size);
    SKY_RETURN_NOT_OK(c.Skip(size));
    SKY_RETURN_NOT_OK(chunk_fn(tag, &payload));
    if (payload.remaining() != 0) {
      return Status::InvalidArgument(what + " chunk has trailing bytes");
    }
  }
  return Status::Ok();
}

Result<std::string> ReadFile(const std::string& path,
                             const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + what + " " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Internal("error reading " + what + " " + path);
  }
  return bytes;
}

void PutStatus(std::string* out, const Status& status) {
  PutU32(out, static_cast<uint32_t>(status.code()));
  PutString(out, status.message());
}

Status ReadStatus(Cursor* c, Status* status) {
  uint32_t code = 0;
  std::string message;
  SKY_RETURN_NOT_OK(c->ReadU32(&code));
  if (code > static_cast<uint32_t>(StatusCode::kInternal)) {
    return Status::InvalidArgument("invalid status code in serialized data");
  }
  SKY_RETURN_NOT_OK(c->ReadString(&message));
  *status = code == 0 ? Status::Ok()
                      : Status(static_cast<StatusCode>(code),
                               std::move(message));
  return Status::Ok();
}

void AppendForecaster(const std::optional<core::Forecaster>& forecaster,
                      std::string* out) {
  std::string* p = out;
  PutU8(p, forecaster.has_value() ? 1 : 0);
  if (!forecaster.has_value()) return;
  const core::Forecaster& f = *forecaster;

  const core::ForecasterOptions& o = f.options();
  PutF64(p, o.input_span);
  PutU64(p, o.input_splits);
  PutF64(p, o.planned_interval);
  PutF64(p, o.training_stride);
  PutU64(p, o.seed);
  const ml::TrainOptions& t = o.train_options;
  PutU64(p, t.epochs);
  PutU64(p, t.batch_size);
  PutF64(p, t.learning_rate);
  PutF64(p, t.validation_split);
  PutU32(p, static_cast<uint32_t>(t.loss));
  PutU64(p, t.shuffle_seed);
  PutU8(p, t.keep_best_validation_weights ? 1 : 0);
  PutU32(p, static_cast<uint32_t>(t.backend));
  PutU64(p, t.grad_chunk_rows);

  PutU64(p, f.num_categories());

  const ml::TrainReport& r = f.train_report();
  PutF64Vec(p, r.train_loss_per_epoch);
  PutF64Vec(p, r.val_loss_per_epoch);
  PutF64(p, r.best_val_loss);
  PutU64(p, r.best_epoch);

  ml::NetSnapshot net = f.SnapshotNet();
  PutU64(p, net.input_dim);
  PutU64Vec(p, net.hidden);
  PutU64(p, net.output_dim);
  PutU32(p, static_cast<uint32_t>(net.output_activation));
  PutU64(p, net.adam_steps);
  PutF64Vec(p, net.params);
  PutF64Vec(p, net.adam_m);
  PutF64Vec(p, net.adam_v);
}

Status ParseForecaster(Cursor* c, std::optional<core::Forecaster>* out) {
  uint8_t present = 0;
  SKY_RETURN_NOT_OK(c->ReadU8(&present));
  if (present == 0) {
    out->reset();
    return Status::Ok();
  }
  if (present != 1) {
    return Status::InvalidArgument("invalid forecaster presence flag");
  }

  core::ForecasterOptions o;
  uint64_t u = 0;
  uint32_t e = 0;
  uint8_t b = 0;
  SKY_RETURN_NOT_OK(c->ReadF64(&o.input_span));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  o.input_splits = u;
  SKY_RETURN_NOT_OK(c->ReadF64(&o.planned_interval));
  SKY_RETURN_NOT_OK(c->ReadF64(&o.training_stride));
  SKY_RETURN_NOT_OK(c->ReadU64(&o.seed));
  ml::TrainOptions& t = o.train_options;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  t.epochs = u;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  t.batch_size = u;
  SKY_RETURN_NOT_OK(c->ReadF64(&t.learning_rate));
  SKY_RETURN_NOT_OK(c->ReadF64(&t.validation_split));
  SKY_RETURN_NOT_OK(c->ReadU32(&e));
  if (e > static_cast<uint32_t>(ml::Loss::kCrossEntropy)) {
    return Status::InvalidArgument("invalid loss id in forecaster payload");
  }
  t.loss = static_cast<ml::Loss>(e);
  SKY_RETURN_NOT_OK(c->ReadU64(&t.shuffle_seed));
  SKY_RETURN_NOT_OK(c->ReadU8(&b));
  t.keep_best_validation_weights = b != 0;
  SKY_RETURN_NOT_OK(c->ReadU32(&e));
  if (e > static_cast<uint32_t>(ml::TrainBackend::kPerSample)) {
    return Status::InvalidArgument(
        "invalid train backend id in forecaster payload");
  }
  t.backend = static_cast<ml::TrainBackend>(e);
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  t.grad_chunk_rows = u;

  uint64_t num_categories = 0;
  SKY_RETURN_NOT_OK(c->ReadU64(&num_categories));

  ml::TrainReport report;
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&report.train_loss_per_epoch));
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&report.val_loss_per_epoch));
  SKY_RETURN_NOT_OK(c->ReadF64(&report.best_val_loss));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  report.best_epoch = u;

  ml::NetSnapshot net;
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  net.input_dim = u;
  SKY_RETURN_NOT_OK(c->ReadU64Vec(&net.hidden));
  SKY_RETURN_NOT_OK(c->ReadU64(&u));
  net.output_dim = u;
  SKY_RETURN_NOT_OK(c->ReadU32(&e));
  if (e > static_cast<uint32_t>(ml::Activation::kSoftmax)) {
    return Status::InvalidArgument(
        "invalid activation id in forecaster payload");
  }
  net.output_activation = static_cast<ml::Activation>(e);
  SKY_RETURN_NOT_OK(c->ReadU64(&net.adam_steps));
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&net.params));
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&net.adam_m));
  SKY_RETURN_NOT_OK(c->ReadF64Vec(&net.adam_v));

  SKY_ASSIGN_OR_RETURN(core::Forecaster forecaster,
                       core::Forecaster::FromParts(net, o, num_categories,
                                                   std::move(report)));
  out->emplace(std::move(forecaster));
  return Status::Ok();
}

}  // namespace sky::io::wire
