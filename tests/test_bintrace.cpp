/// \file test_bintrace.cpp
/// \brief Tests for the `.bt` binary epoch-trace format: binio round-trips,
///        writer/reader round-trips, the CSV differential oracle, corrupt
///        and truncated input rejection, determinism, and the sample-sink
///        composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hpp"
#include "common/csv.hpp"
#include "gov/simple.hpp"
#include "hw/platform.hpp"
#include "sim/bintrace.hpp"
#include "sim/experiment.hpp"
#include "sim/telemetry.hpp"
#include "wl/fft.hpp"

namespace prime::sim {
namespace {

wl::Application make_app(std::size_t frames, double fps = 30.0) {
  wl::WorkloadTrace trace =
      wl::FftTraceGenerator::paper_fft().generate(frames, 1);
  trace = trace.scaled_to_mean(0.45 * 4.0 * 2.0e9 / fps);
  return wl::Application("fft", std::move(trace), fps);
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Run `frames` epochs with the given sinks attached.
RunResult run_with_sinks(std::size_t frames,
                         std::vector<TelemetrySink*> sinks) {
  auto platform = hw::Platform::odroid_xu3_a15();
  const wl::Application app = make_app(frames);
  gov::PerformanceGovernor g;
  RunOptions opt;
  opt.sinks = std::move(sinks);
  return run_simulation(*platform, app, g, opt);
}

/// Write a small synthetic sealed trace directly through the writer.
void write_synthetic(const std::string& path, std::size_t records,
                     bool sealed = true) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  BinTraceWriter writer(out);
  writer.begin("test-governor", "test-app");
  for (std::size_t i = 0; i < records; ++i) {
    EpochRecord r;
    r.epoch = i;
    r.period = 0.04;
    r.energy = 0.001 * static_cast<double>(i);
    writer.append(r);
  }
  if (sealed) writer.seal();
}

void expect_all_fields_equal(const EpochRecord& a, const EpochRecord& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.opp_index, b.opp_index);
  EXPECT_EQ(a.demand, b.demand);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.deadline_met, b.deadline_met);
  // Bit-exact, not approximately-equal: the format stores IEEE-754 patterns.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.period),
            std::bit_cast<std::uint64_t>(b.period));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.frequency),
            std::bit_cast<std::uint64_t>(b.frequency));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.frame_time),
            std::bit_cast<std::uint64_t>(b.frame_time));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.window),
            std::bit_cast<std::uint64_t>(b.window));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy),
            std::bit_cast<std::uint64_t>(b.energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sensor_power),
            std::bit_cast<std::uint64_t>(b.sensor_power));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.temperature),
            std::bit_cast<std::uint64_t>(b.temperature));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.slack),
            std::bit_cast<std::uint64_t>(b.slack));
}

// --- binio helpers -----------------------------------------------------------

TEST(BinIo, IntegersRoundTripLittleEndian) {
  unsigned char buf[8] = {};
  common::store_u32(buf, 0x01020304u);
  // Little-endian on disk regardless of host order.
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
  EXPECT_EQ(common::load_u32(buf), 0x01020304u);

  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xDEADBEEFCAFEF00D},
        std::numeric_limits<std::uint64_t>::max()}) {
    common::store_u64(buf, v);
    EXPECT_EQ(common::load_u64(buf), v);
  }
}

TEST(BinIo, DoublesRoundTripBitExact) {
  unsigned char buf[8] = {};
  for (const double v :
       {0.0, -0.0, 1.0, -1.7e308, 5e-324 /* denormal */,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    common::store_f64(buf, v);
    const double back = common::load_f64(buf);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(BinIo, RecordEncodeDecodeRoundTripsEveryField) {
  EpochRecord r;
  r.epoch = 123456789;
  r.period = 1.0 / 30.0;
  r.opp_index = 17;
  r.frequency = 1.4e9;
  r.demand = 0x1234567890ABCDEFull;
  r.executed = 0xFEDCBA0987654321ull;
  r.frame_time = 0.0312345678901234;
  r.window = 1.0 / 30.0;
  r.energy = 0.123456789;
  r.sensor_power = 3.14159265358979;
  r.temperature = 61.25;
  r.slack = -0.0625;
  r.deadline_met = false;

  unsigned char buf[kBinTraceRecordSize] = {};
  encode_record(r, buf);
  expect_all_fields_equal(decode_record(buf), r);
}

// --- Round-trip through a real run -------------------------------------------

TEST(BinTrace, RoundTripsARunFieldForField) {
  const std::string path = temp_path("roundtrip.bt");
  TraceSink trace;
  BinTraceSink bt(path);
  const RunResult run = run_with_sinks(300, {&trace, &bt});

  BinTraceReader reader(path);
  EXPECT_EQ(reader.version(), kBinTraceVersion);
  EXPECT_EQ(reader.governor(), run.governor);
  EXPECT_EQ(reader.application(), run.application);
  ASSERT_EQ(reader.record_count(), 300u);
  EXPECT_EQ(reader.file_size(),
            kBinTraceHeaderSize + 300 * kBinTraceRecordSize);

  // Streaming iteration delivers every record, in order, bit-exact.
  std::size_t i = 0;
  while (const auto record = reader.next()) {
    ASSERT_LT(i, trace.records().size());
    expect_all_fields_equal(*record, trace.records()[i]);
    ++i;
  }
  EXPECT_EQ(i, 300u);
  EXPECT_FALSE(reader.next().has_value());  // stays at end

  // O(1) random access agrees with the stream, in any order.
  reader.rewind();
  for (const std::size_t idx : {299u, 0u, 150u, 7u}) {
    expect_all_fields_equal(reader.at(idx), trace.records()[idx]);
  }
  EXPECT_THROW((void)reader.at(300), std::out_of_range);

  // Random access does not disturb the streaming cursor.
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->epoch, 0u);
}

TEST(BinTrace, ReplayedAggregatesMatchTheRunBitForBit) {
  // Accumulating the stored records in order is the same fold over the same
  // doubles the engine performed — any difference means lost information.
  const std::string path = temp_path("aggregates.bt");
  BinTraceSink bt(path);
  const RunResult run = run_with_sinks(500, {&bt});

  BinTraceReader reader(path);
  RunResult replayed;
  while (const auto record = reader.next()) replayed.accumulate(*record);
  EXPECT_EQ(replayed.epoch_count, run.epoch_count);
  EXPECT_EQ(replayed.deadline_misses, run.deadline_misses);
  EXPECT_DOUBLE_EQ(replayed.total_energy, run.total_energy);
  EXPECT_DOUBLE_EQ(replayed.total_time, run.total_time);
  EXPECT_DOUBLE_EQ(replayed.performance_sum, run.performance_sum);
  EXPECT_DOUBLE_EQ(replayed.power_sum, run.power_sum);
}

// --- The differential oracle: .bt -> CSV == csv(path=) -----------------------

TEST(BinTrace, ConvertedCsvIsByteIdenticalToTheCsvSink) {
  // The format's correctness oracle: the same run observed by both sinks,
  // with the binary trace converted to CSV afterwards, must produce the
  // exact bytes the csv(path=) sink streamed live.
  const std::string bt_path = temp_path("differential.bt");
  const std::string csv_path = temp_path("differential.csv");
  {
    auto csv = make_sink("csv(path=" + csv_path + ")");
    auto bt = make_sink("bintrace(path=" + bt_path + ")");
    (void)run_with_sinks(400, {csv.get(), bt.get()});
  }  // sinks destroyed: CSV flushed

  BinTraceReader reader(bt_path);
  std::ostringstream converted;
  reader.to_csv(converted);
  EXPECT_EQ(converted.str(), read_bytes(csv_path));

  // And the conversion still parses as the documented six-column table.
  const common::CsvTable table = common::parse_csv(converted.str());
  EXPECT_EQ(table.header,
            (std::vector<std::string>{"frame", "demand", "freq_mhz", "slack",
                                      "power_w", "energy_mj"}));
  ASSERT_EQ(table.rows.size(), 400u);
  EXPECT_DOUBLE_EQ(table.column_as_double("frame")[399], 399.0);
}

// --- Determinism -------------------------------------------------------------

TEST(BinTrace, IdenticalSeededRunsProduceBitIdenticalFiles) {
  const std::string a = temp_path("det_a.bt");
  const std::string b = temp_path("det_b.bt");
  for (const std::string& path : {a, b}) {
    auto platform = hw::Platform::odroid_xu3_a15();
    ExperimentSpec spec;
    spec.workload = "mpeg4";
    spec.fps = 30.0;
    spec.frames = 400;
    spec.seed = 7;
    const wl::Application app = make_application(spec, *platform);
    const auto governor = make_governor("rtm-manycore", 0x5EED);
    BinTraceSink bt(path);
    RunOptions opt;
    opt.sinks = {&bt};
    (void)run_simulation(*platform, app, *governor, opt);
  }
  const std::string bytes_a = read_bytes(a);
  EXPECT_EQ(bytes_a.size(), kBinTraceHeaderSize + 400 * kBinTraceRecordSize);
  EXPECT_EQ(bytes_a, read_bytes(b));
}

// --- Composition with the sample sink ----------------------------------------

TEST(BinTrace, SampleCompositionWritesCeilFramesOverEvery) {
  // sample(every=n) forwards epoch 0 and every n-th after it, so a run of f
  // frames writes ceil(f/n) records.
  constexpr std::pair<std::size_t, std::size_t> kCases[] = {
      {25, 10}, {30, 10}, {31, 10}};
  for (const auto& [frames, every] : kCases) {
    const std::string path = temp_path("sampled.bt");
    auto sink = make_sink("sample(every=" + std::to_string(every) +
                          ",inner=bintrace(path=" + path + "))");
    (void)run_with_sinks(frames, {sink.get()});

    BinTraceReader reader(path);
    const std::size_t expected = (frames + every - 1) / every;
    ASSERT_EQ(reader.record_count(), expected)
        << frames << " frames, every=" << every;
    for (std::size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(reader.at(i).epoch, i * every);
    }
  }
}

// --- Sink behaviour ----------------------------------------------------------

TEST(BinTrace, SinkRewritesPerRunKeepingOnlyTheLatest) {
  // Unlike the appending CSV sink, a .bt holds one homogeneous record block:
  // a second run on the same sink truncates and rewrites.
  const std::string path = temp_path("rewrite.bt");
  BinTraceSink bt(path);
  (void)run_with_sinks(40, {&bt});
  (void)run_with_sinks(25, {&bt});
  BinTraceReader reader(path);
  EXPECT_EQ(reader.record_count(), 25u);
  EXPECT_EQ(reader.file_size(), kBinTraceHeaderSize + 25 * kBinTraceRecordSize);
}

TEST(BinTrace, ConstructedButNeverRunSinkTouchesNothing) {
  // Same lazy-open contract as CsvSink: spec validation or trial
  // construction must not clobber existing data.
  const std::string path = temp_path("precious.bt");
  write_bytes(path, "do-not-truncate");
  (void)make_sink("bintrace(path=" + path + ")");  // constructed, never run
  BinTraceSink direct(path);                       // ditto for the ctor
  EXPECT_EQ(direct.records_written(), 0u);
  EXPECT_EQ(read_bytes(path), "do-not-truncate");
}

TEST(BinTrace, RegistrySpecDiagnostics) {
  const auto names = sink_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "bintrace"), names.end());
  EXPECT_NE(dynamic_cast<BinTraceSink*>(
                make_sink("bintrace(path=/tmp/x.bt)").get()),
            nullptr);
  // A path is mandatory — binary records on stdout help nobody.
  EXPECT_THROW((void)make_sink("bintrace"), std::invalid_argument);
  // Typo'd keys get the registry's did-you-mean diagnostics.
  EXPECT_THROW((void)make_sink("bintrace(pth=/tmp/x.bt)"),
               common::UnknownKeyError);
}

// --- Writer misuse -----------------------------------------------------------

TEST(BinTraceWriter, RejectsOutOfOrderCalls) {
  std::ostringstream out;
  BinTraceWriter writer(out);
  EpochRecord r;
  EXPECT_THROW(writer.append(r), std::logic_error);  // before begin
  EXPECT_THROW(writer.seal(), std::logic_error);     // before begin
  writer.begin("g", "a");
  EXPECT_THROW(writer.begin("g", "a"), std::logic_error);  // twice
  writer.append(r);
  writer.seal();
  EXPECT_THROW(writer.append(r), std::logic_error);  // after seal
  EXPECT_THROW(writer.seal(), std::logic_error);     // twice
  EXPECT_TRUE(writer.sealed());
  EXPECT_EQ(writer.records_written(), 1u);
}

TEST(BinTraceWriter, SealThrowsWhenAWriteFailed) {
  // badbit is sticky: a disk-full failure anywhere in the run must surface
  // at seal(), never let the producer report success over a broken trace.
  std::ostringstream out;
  BinTraceWriter writer(out);
  writer.begin("g", "a");
  out.setstate(std::ios::badbit);  // simulate the disk filling mid-run
  writer.append(EpochRecord{});    // silently no-ops on the bad stream
  EXPECT_THROW(writer.seal(), std::runtime_error);
  EXPECT_FALSE(writer.sealed());
}

TEST(BinTraceWriter, TruncatesOverlongNamesAtTheFieldWidth) {
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  BinTraceWriter writer(out);
  const std::string long_name(kBinTraceNameSize + 30, 'g');
  writer.begin(long_name, "app");
  writer.seal();

  const std::string path = temp_path("longname.bt");
  write_bytes(path, out.str());
  BinTraceReader reader(path);
  EXPECT_EQ(reader.governor(), std::string(kBinTraceNameSize, 'g'));
  EXPECT_EQ(reader.application(), "app");
}

// --- Chunked appends ---------------------------------------------------------
//
// The writer hands the stream whole chunks of kBinTraceChunkRecords records.
// The bytes must be those of one write per record, at every chunk boundary,
// on failure and on an aborted run.

constexpr std::size_t kChunk = kBinTraceChunkRecords;

/// A record whose every field depends on \p i.
EpochRecord numbered_record(std::size_t i) {
  const double x = static_cast<double>(i);
  EpochRecord r;
  r.epoch = i;
  r.period = 0.04 + 1e-6 * x;
  r.opp_index = i % 19;
  r.deadline_met = i % 3 != 0;
  r.frequency = 2e8 + 1e5 * x;
  r.demand = 1000 * i + 7;
  r.executed = 999 * i;
  r.frame_time = 0.03 + 1e-7 * x;
  r.window = 0.04;
  r.energy = 1e-3 * x;
  r.sensor_power = 1.5 + 1e-4 * x;
  r.temperature = 40.0 + 1e-3 * x;
  r.slack = -0.5 + 1e-3 * x;
  return r;
}

/// The `.bt` bytes one write per record gives, built field by field from
/// the layout table in bintrace.hpp. \p count is the header's count field.
std::string per_record_bytes(const std::string& governor,
                             const std::string& application,
                             const std::vector<EpochRecord>& records,
                             std::uint64_t count) {
  std::string bytes(kBinTraceHeaderSize, '\0');
  auto* header = reinterpret_cast<unsigned char*>(bytes.data());
  std::copy(kBinTraceMagic.begin(), kBinTraceMagic.end(), header);
  common::store_u32(header + 8, kBinTraceVersion);
  common::store_u32(header + 12, kBinTraceHeaderSize);
  common::store_u32(header + 16, kBinTraceRecordSize);
  common::store_u64(header + 24, count);
  std::copy(governor.begin(), governor.end(), bytes.begin() + 32);
  std::copy(application.begin(), application.end(), bytes.begin() + 72);
  unsigned char buf[kBinTraceRecordSize];
  for (const EpochRecord& r : records) {
    encode_record(r, buf);
    bytes.append(reinterpret_cast<const char*>(buf), kBinTraceRecordSize);
  }
  return bytes;
}

/// A seekable in-memory buffer that logs the size of every write handed to
/// it and, like a full disk, refuses every write past \p capacity bytes.
class WriteLogBuf : public std::stringbuf {
 public:
  explicit WriteLogBuf(
      std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : std::stringbuf(std::ios::in | std::ios::out | std::ios::binary),
        capacity_(capacity) {}

  std::vector<std::size_t> writes;
  std::size_t accepted() const { return accepted_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto size = static_cast<std::size_t>(n);
    if (size > capacity_ - accepted_) return 0;
    accepted_ += size;
    writes.push_back(size);
    return std::stringbuf::xsputn(s, n);
  }

 private:
  std::size_t capacity_;
  std::size_t accepted_ = 0;
};

class BinTraceChunks : public testing::TestWithParam<std::size_t> {};

TEST_P(BinTraceChunks, BytesMatchOneWritePerRecordInWholeRecordChunks) {
  const std::size_t n = GetParam();
  WriteLogBuf buf;
  std::ostream out(&buf);
  std::vector<EpochRecord> records;
  {
    BinTraceWriter writer(out);
    writer.begin("rtm-manycore", "h264");
    for (std::size_t i = 0; i < n; ++i) {
      records.push_back(numbered_record(i));
      writer.append(records.back());
    }
    writer.seal();
  }
  EXPECT_EQ(buf.str(), per_record_bytes("rtm-manycore", "h264", records, n));

  // The header, then one write per chunk of whole records, then the count
  // patch; no write is larger than a chunk.
  ASSERT_GE(buf.writes.size(), 2u);
  EXPECT_EQ(buf.writes.front(), kBinTraceHeaderSize);
  EXPECT_EQ(buf.writes.back(), 8u);
  const std::vector<std::size_t> chunks(buf.writes.begin() + 1,
                                        buf.writes.end() - 1);
  EXPECT_EQ(chunks.size(), (n + kChunk - 1) / kChunk);
  for (const std::size_t bytes : chunks) {
    EXPECT_EQ(bytes % kBinTraceRecordSize, 0u);
    EXPECT_LE(bytes, kChunk * kBinTraceRecordSize);
  }
}

INSTANTIATE_TEST_SUITE_P(RecordCounts, BinTraceChunks,
                         testing::Values(0, 1, kChunk - 1, kChunk, kChunk + 1,
                                         3 * kChunk));

TEST(BinTraceChunks, WriterHoldsLessThanOneChunkOf64KiB) {
  static_assert(kChunk >= 1 && kChunk * kBinTraceRecordSize <= 64 * 1024);
  WriteLogBuf buf;
  std::ostream out(&buf);
  BinTraceWriter writer(out);
  writer.begin("g", "a");
  std::size_t peak = 0;  // records appended but not yet on the stream
  for (std::size_t i = 0; i < 3 * kChunk + 5; ++i) {
    writer.append(numbered_record(i));
    const std::size_t written =
        (buf.accepted() - kBinTraceHeaderSize) / kBinTraceRecordSize;
    peak = std::max(peak, i + 1 - written);
  }
  // A chunk goes out on the append that fills it.
  EXPECT_EQ(peak, kChunk - 1);
  for (const std::size_t bytes : buf.writes) {
    EXPECT_LE(bytes, std::size_t{64 * 1024});
  }
}

TEST(BinTraceWriter, SealThrowsWhenAChunkWriteFailed) {
  // The disk fills right after the header: the first chunk write fails, the
  // records after it still buffer, and seal() must report the failure.
  WriteLogBuf buf(kBinTraceHeaderSize);
  std::ostream out(&buf);
  BinTraceWriter writer(out);
  writer.begin("g", "a");
  for (std::size_t i = 0; i + 1 < kChunk; ++i) writer.append(numbered_record(i));
  EXPECT_TRUE(out.good());  // nothing handed to the stream yet
  writer.append(numbered_record(kChunk - 1));
  EXPECT_TRUE(out.bad());  // the chunk write failed
  writer.append(numbered_record(kChunk));
  EXPECT_THROW(writer.seal(), std::runtime_error);
  EXPECT_FALSE(writer.sealed());
}

TEST(BinTraceSink, RunThatThrowsLeavesEveryAppendedRecordUnsealed) {
  // A sink failing mid-run aborts it before on_run_end: the trace is never
  // sealed, and destroying the sink writes every record it was given.
  const std::string path = temp_path("aborted-run.bt");
  const std::size_t throw_at = kChunk + 10;
  std::vector<EpochRecord> seen;
  {
    BinTraceSink bt(path);
    CallbackSink fail([&](const EpochRecord& record, gov::Governor&) {
      seen.push_back(record);
      if (record.epoch == throw_at) throw std::runtime_error("sink failed");
    });
    EXPECT_THROW((void)run_with_sinks(2 * kChunk, {&bt, &fail}),
                 std::runtime_error);
  }
  ASSERT_EQ(seen.size(), throw_at + 1);
  const BinTraceReader live = BinTraceReader::follow(path);
  EXPECT_FALSE(live.sealed());
  EXPECT_EQ(read_bytes(path),
            per_record_bytes(live.governor(), live.application(), seen,
                             kBinTraceUnsealed));
}

// --- Corrupt-input hardening -------------------------------------------------
//
// Every malformed file must fail with a clear, specific error — never
// silently yield garbage records (the binary mirror of the from_csv
// malformed-cell hardening).

class BinTraceCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("corrupt.bt");
    write_synthetic(path_, 5);
    bytes_ = read_bytes(path_);
    ASSERT_EQ(bytes_.size(), kBinTraceHeaderSize + 5 * kBinTraceRecordSize);
  }

  /// Re-write the file with \p bytes and return the reader's error message.
  std::string open_error(const std::string& bytes) {
    write_bytes(path_, bytes);
    try {
      BinTraceReader reader(path_);
    } catch (const BinTraceError& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected BinTraceError";
    return {};
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(BinTraceCorruptionTest, ValidFileReadsBack) {
  BinTraceReader reader(path_);
  EXPECT_EQ(reader.record_count(), 5u);
  EXPECT_EQ(reader.governor(), "test-governor");
  EXPECT_EQ(reader.application(), "test-app");
  EXPECT_DOUBLE_EQ(reader.at(3).energy, 0.003);
}

TEST_F(BinTraceCorruptionTest, BadMagicRejected) {
  std::string bad = bytes_;
  bad[0] = 'X';
  EXPECT_NE(open_error(bad).find("bad magic"), std::string::npos);
}

TEST_F(BinTraceCorruptionTest, UnsupportedVersionRejected) {
  std::string bad = bytes_;
  bad[8] = 99;  // version u32 at offset 8, little-endian low byte
  const std::string what = open_error(bad);
  EXPECT_NE(what.find("unsupported version 99"), std::string::npos) << what;
}

TEST_F(BinTraceCorruptionTest, RecordSizeMismatchRejected) {
  std::string bad = bytes_;
  bad[16] = 80;  // record size u32 at offset 16
  const std::string what = open_error(bad);
  EXPECT_NE(what.find("record size mismatch"), std::string::npos) << what;
  EXPECT_NE(what.find("80"), std::string::npos) << what;
}

TEST_F(BinTraceCorruptionTest, HeaderSizeMismatchRejected) {
  std::string bad = bytes_;
  bad[12] = 64;  // header size u32 at offset 12
  EXPECT_NE(open_error(bad).find("header size mismatch"), std::string::npos);
}

TEST_F(BinTraceCorruptionTest, OverflowingRecordCountRejected) {
  // 96 * 2^59 ≡ 0 (mod 2^64), so a corrupt count of 5 + 2^59 makes
  // header + count*record wrap back onto the real 5-record file size; the
  // validation must bound the count before multiplying, not after.
  std::string bad = bytes_;
  const std::uint64_t wrapping = 5 + (std::uint64_t{1} << 59);
  unsigned char field[8];
  common::store_u64(field, wrapping);
  for (std::size_t i = 0; i < 8; ++i) {
    bad[24 + i] = static_cast<char>(field[i]);
  }
  const std::string what = open_error(bad);
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
}

TEST_F(BinTraceCorruptionTest, TruncatedFinalRecordRejected) {
  // Chop half of the last record: the reader must refuse up front, not
  // return four good records and one of garbage.
  const std::string truncated =
      bytes_.substr(0, bytes_.size() - kBinTraceRecordSize / 2);
  const std::string what = open_error(truncated);
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  EXPECT_NE(what.find("5 records"), std::string::npos) << what;
}

TEST_F(BinTraceCorruptionTest, TruncatedHeaderRejected) {
  EXPECT_NE(open_error(bytes_.substr(0, 20)).find("truncated header"),
            std::string::npos);
}

TEST_F(BinTraceCorruptionTest, TrailingBytesRejected) {
  EXPECT_NE(open_error(bytes_ + "xyz").find("trailing bytes"),
            std::string::npos);
}

TEST_F(BinTraceCorruptionTest, UnsealedFileRejected) {
  // A producer that died mid-run leaves the count sentinel in place; the
  // reader names the condition instead of guessing a count from the size.
  write_synthetic(path_, 5, /*sealed=*/false);
  try {
    BinTraceReader reader(path_);
    FAIL() << "expected BinTraceError";
  } catch (const BinTraceError& e) {
    EXPECT_NE(std::string(e.what()).find("unsealed"), std::string::npos);
  }
}

TEST_F(BinTraceCorruptionTest, SealedEmptyRunIsValid) {
  // Zero records with a sealed count is a legitimate file — distinct from
  // the unsealed sentinel.
  write_synthetic(path_, 0, /*sealed=*/true);
  BinTraceReader reader(path_);
  EXPECT_EQ(reader.record_count(), 0u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_THROW((void)reader.at(0), std::out_of_range);
  std::ostringstream csv;
  reader.to_csv(csv);
  EXPECT_EQ(csv.str(), "frame,demand,freq_mhz,slack,power_w,energy_mj\n");
}

TEST_F(BinTraceCorruptionTest, MissingFileRejected) {
  try {
    BinTraceReader reader(temp_path("does-not-exist.bt"));
    FAIL() << "expected BinTraceError";
  } catch (const BinTraceError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// --- concat_traces -----------------------------------------------------------

/// Write a sealed trace with distinctive records at the given epoch offset.
void write_chunk(const std::string& path, std::size_t offset,
                 std::size_t records, const std::string& governor = "g",
                 const std::string& application = "a") {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  BinTraceWriter writer(out);
  writer.begin(governor, application);
  for (std::size_t i = 0; i < records; ++i) {
    EpochRecord r;
    r.epoch = offset + i;
    r.period = 0.04;
    r.energy = 0.001 * static_cast<double>(offset + i);
    r.slack = -0.1 + 0.01 * static_cast<double>(i);
    writer.append(r);
  }
  writer.seal();
}

TEST(ConcatTraces, PreservesEveryRecordVerbatimInInputOrder) {
  const std::string a = temp_path("cat-a.bt");
  const std::string b = temp_path("cat-b.bt");
  const std::string c = temp_path("cat-c.bt");
  const std::string out = temp_path("cat-out.bt");
  write_chunk(a, 0, 3);
  write_chunk(b, 3, 0);  // an empty chunk is legitimate (sealed, 0 records)
  write_chunk(c, 3, 4);
  EXPECT_EQ(concat_traces({a, b, c}, out), 7u);

  BinTraceReader reader(out);
  EXPECT_EQ(reader.governor(), "g");
  EXPECT_EQ(reader.application(), "a");
  ASSERT_EQ(reader.record_count(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(reader.at(i).epoch, i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.at(i).energy),
              std::bit_cast<std::uint64_t>(0.001 * static_cast<double>(i)));
  }

  // Byte-level: the output's record block is the inputs' record blocks
  // appended — concatenation re-frames, never re-encodes.
  const std::string got = read_bytes(out);
  const std::string want =
      read_bytes(a).substr(kBinTraceHeaderSize) +
      read_bytes(c).substr(kBinTraceHeaderSize);
  EXPECT_EQ(got.substr(kBinTraceHeaderSize), want);
}

TEST(ConcatTraces, SingleInputRoundTripsByteIdentical) {
  const std::string a = temp_path("cat-single.bt");
  const std::string out = temp_path("cat-single-out.bt");
  write_chunk(a, 0, 5);
  EXPECT_EQ(concat_traces({a}, out), 5u);
  EXPECT_EQ(read_bytes(out), read_bytes(a));
}

TEST(ConcatTraces, RejectsMixedRunsNamingTheOffendingFile) {
  const std::string a = temp_path("cat-mix-a.bt");
  const std::string b = temp_path("cat-mix-b.bt");
  const std::string out = temp_path("cat-mix-out.bt");
  write_chunk(a, 0, 2, "rtm", "h264");
  write_chunk(b, 2, 2, "ondemand", "h264");
  try {
    concat_traces({a, b}, out);
    FAIL() << "expected BinTraceError";
  } catch (const BinTraceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(b), std::string::npos) << what;
    EXPECT_NE(what.find("rtm"), std::string::npos) << what;
    EXPECT_NE(what.find("ondemand"), std::string::npos) << what;
  }
  // Validation happens before writing: no output file appears.
  std::ifstream probe(out, std::ios::binary);
  EXPECT_FALSE(probe.good());
}

TEST(ConcatTraces, RejectsUnsealedInput) {
  const std::string a = temp_path("cat-unsealed-a.bt");
  const std::string b = temp_path("cat-unsealed-b.bt");
  write_chunk(a, 0, 2);
  write_synthetic(b, 2, /*sealed=*/false);
  try {
    concat_traces({a, b}, temp_path("cat-unsealed-out.bt"));
    FAIL() << "expected BinTraceError";
  } catch (const BinTraceError& e) {
    EXPECT_NE(std::string(e.what()).find("unsealed"), std::string::npos);
  }
}

TEST(ConcatTraces, RejectsEmptyInputList) {
  EXPECT_THROW(concat_traces({}, temp_path("cat-none.bt")), BinTraceError);
}

// --- Follow mode: live reads of a growing, unsealed trace --------------------
//
// The dashboard's /window endpoint reads the .bt of a run still in flight.
// Follow mode must (a) never return a torn record — the countable region is
// floor((size - header) / record) complete records, whatever half-written
// bytes trail it — and (b) notice the seal so the final count comes from the
// header, not the file size.

void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Patch the header's count field in place, as seal() does.
void seal_in_place(const std::string& path, std::uint64_t count) {
  unsigned char field[8];
  common::store_u64(field, count);
  std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
  out.seekp(24);  // count field offset in the header
  out.write(reinterpret_cast<const char*>(field), 8);
}

TEST(BinTraceFollow, ReadsAnUnsealedGrowingFile) {
  const std::string path = temp_path("follow-grow.bt");
  write_synthetic(path, 3, /*sealed=*/false);

  BinTraceReader reader = BinTraceReader::follow(path);
  EXPECT_TRUE(reader.following());
  EXPECT_FALSE(reader.sealed());
  ASSERT_EQ(reader.record_count(), 3u);
  EXPECT_DOUBLE_EQ(reader.at(2).energy, 0.002);

  // The producer appends two more records; refresh picks them up.
  unsigned char buf[kBinTraceRecordSize];
  for (std::size_t i = 3; i < 5; ++i) {
    EpochRecord r;
    r.epoch = i;
    r.energy = 0.001 * static_cast<double>(i);
    encode_record(r, buf);
    append_bytes(path, std::string(reinterpret_cast<char*>(buf),
                                   kBinTraceRecordSize));
  }
  EXPECT_EQ(reader.refresh(), 5u);
  EXPECT_EQ(reader.at(4).epoch, 4u);
  EXPECT_DOUBLE_EQ(reader.at(4).energy, 0.004);
}

TEST(BinTraceFollow, TornTailIsInvisible) {
  // Kill-mid-write: the file ends in half a record. The reader's count must
  // exclude it — at() can never decode bytes the producer had not finished.
  const std::string path = temp_path("follow-torn.bt");
  write_synthetic(path, 4, /*sealed=*/false);
  append_bytes(path, std::string(kBinTraceRecordSize / 2, '\x7f'));

  BinTraceReader reader = BinTraceReader::follow(path);
  EXPECT_EQ(reader.record_count(), 4u);
  EXPECT_DOUBLE_EQ(reader.at(3).energy, 0.003);
  EXPECT_THROW((void)reader.at(4), std::out_of_range);

  // The torn record completes: its second half arrives, refresh sees 5.
  append_bytes(path, std::string(kBinTraceRecordSize / 2, '\0'));
  EXPECT_EQ(reader.refresh(), 5u);
  EXPECT_NO_THROW((void)reader.at(4));
}

TEST(BinTraceFollow, SealObservedMidFollow) {
  const std::string path = temp_path("follow-seal.bt");
  write_synthetic(path, 6, /*sealed=*/false);

  BinTraceReader reader = BinTraceReader::follow(path);
  EXPECT_FALSE(reader.sealed());
  seal_in_place(path, 6);
  EXPECT_EQ(reader.refresh(), 6u);
  EXPECT_TRUE(reader.sealed());
  // A sealed follower is inert: refresh keeps answering without re-statting.
  EXPECT_EQ(reader.refresh(), 6u);
  EXPECT_EQ(reader.at(5).epoch, 5u);
}

TEST(BinTraceFollow, SealedFileFollowsAsAlreadySealed) {
  const std::string path = temp_path("follow-sealed.bt");
  write_synthetic(path, 2, /*sealed=*/true);
  BinTraceReader reader = BinTraceReader::follow(path);
  EXPECT_TRUE(reader.following());
  EXPECT_TRUE(reader.sealed());
  EXPECT_EQ(reader.record_count(), 2u);
}

TEST(BinTraceFollow, StreamingIterationSpansRefreshes) {
  const std::string path = temp_path("follow-stream.bt");
  write_synthetic(path, 2, /*sealed=*/false);
  BinTraceReader reader = BinTraceReader::follow(path);
  EXPECT_EQ(reader.next()->epoch, 0u);
  EXPECT_EQ(reader.next()->epoch, 1u);
  EXPECT_FALSE(reader.next().has_value());  // caught up

  unsigned char buf[kBinTraceRecordSize];
  EpochRecord r;
  r.epoch = 2;
  encode_record(r, buf);
  append_bytes(path, std::string(reinterpret_cast<char*>(buf),
                                 kBinTraceRecordSize));
  EXPECT_EQ(reader.refresh(), 3u);
  EXPECT_EQ(reader.next()->epoch, 2u);  // resumes where it left off
}

TEST(BinTraceFollow, ShrinkingFileRejected) {
  // A trace that got shorter is a different file (truncated, replaced):
  // serving records from it would mix two runs' bytes.
  const std::string path = temp_path("follow-shrink.bt");
  write_synthetic(path, 5, /*sealed=*/false);
  BinTraceReader reader = BinTraceReader::follow(path);
  ASSERT_EQ(reader.record_count(), 5u);

  const std::string bytes = read_bytes(path);
  write_bytes(path, bytes.substr(0, bytes.size() - 2 * kBinTraceRecordSize));
  EXPECT_THROW((void)reader.refresh(), BinTraceError);
}

TEST(BinTraceFollow, RefreshOutsideFollowModeThrows) {
  const std::string path = temp_path("follow-misuse.bt");
  write_synthetic(path, 1, /*sealed=*/true);
  BinTraceReader reader(path);
  EXPECT_FALSE(reader.following());
  EXPECT_THROW((void)reader.refresh(), std::logic_error);
}

TEST(BinTraceFollow, LiveRunObservedThroughFollowMatchesTheSealedTrace) {
  // End to end: attach a bintrace sink, follow the file both mid-run (via a
  // callback poking at it every few epochs) and after sealing — every record
  // visible mid-run must be bit-identical to the sealed trace's.
  const std::string path = temp_path("follow-live.bt");
  BinTraceSink bt(path);
  std::size_t observed = 0;
  CallbackSink probe([&](const EpochRecord& record, gov::Governor&) {
    if (record.epoch % 64 != 63) return;
    try {
      BinTraceReader live = BinTraceReader::follow(path);
      // The sink writes in chunks, so the on-disk prefix may lag the epoch
      // counter — whatever is visible must already be final bytes.
      EXPECT_LE(live.record_count(), record.epoch + 1);
      observed = std::max(observed, live.record_count());
      if (live.record_count() > 0) {
        EXPECT_EQ(live.at(live.record_count() - 1).epoch,
                  live.record_count() - 1);
      }
    } catch (const BinTraceError&) {
      // Even the header may still sit in the sink's write buffer — the
      // dashboard answers 503 (retry) for this; the next poke tries again.
    }
  });
  (void)run_with_sinks(300, {&bt, &probe});

  BinTraceReader sealed_reader(path);
  EXPECT_EQ(sealed_reader.record_count(), 300u);
}

TEST(BinTraceFollow, LiveFollowerLagsTheRunByLessThanOneChunk) {
  // The sink's file is unbuffered, so the header is visible from run begin
  // and the records only wait for their chunk to fill.
  const std::string path = temp_path("follow-lag.bt");
  const std::size_t frames = 3 * kChunk + 5;
  BinTraceSink bt(path);
  std::size_t probes = 0;
  CallbackSink probe([&](const EpochRecord& record, gov::Governor&) {
    if (record.epoch % 64 != 0) return;
    ++probes;
    BinTraceReader live = BinTraceReader::follow(path);
    const std::size_t appended = record.epoch + 1;
    EXPECT_LE(live.record_count(), appended);
    EXPECT_LT(appended - live.record_count(), kChunk) << "epoch " << record.epoch;
  });
  (void)run_with_sinks(frames, {&bt, &probe});
  EXPECT_EQ(probes, (frames + 63) / 64);
  EXPECT_EQ(BinTraceReader(path).record_count(), frames);
}

}  // namespace
}  // namespace prime::sim
