#ifndef ARECEL_UTIL_ARCHIVE_H_
#define ARECEL_UTIL_ARCHIVE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace arecel {

// Minimal binary archive over an in-memory buffer: the substrate for model
// persistence (core/model_io.h), whose bytes the model store (src/store/)
// writes and reads back. Writers append little-endian fixed-width scalars
// and length-prefixed containers; readers validate bounds and report
// failure instead of aborting, so corrupt bytes degrade gracefully.

class ByteWriter {
 public:
  ByteWriter() = default;

  // A counting writer tallies bytes_written() without storing anything —
  // the cheap capability probe behind SupportsPersistence (core/model_io.h):
  // serializers still walk their state, but no buffer is grown or copied.
  static ByteWriter Counting();

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s);
  void Floats(const std::vector<float>& v);
  void Doubles(const std::vector<double>& v);
  void Ints(const std::vector<int>& v);
  // `v`'s values with no length prefix: Doubles(v) is U64(v.size()) then
  // F64s(v), so one length can prefix several runs of values.
  void F64s(std::span<const double> v);

  // The serialized bytes. Empty for a counting writer regardless of what
  // was written.
  const std::string& buffer() const { return buffer_; }

  // Total bytes written so far (counted in both modes).
  size_t bytes_written() const { return bytes_written_; }
  bool counting_only() const { return counting_only_; }

 private:
  void Raw(const void* data, size_t bytes);
  std::string buffer_;
  size_t bytes_written_ = 0;
  bool counting_only_ = false;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& buffer) : buffer_(buffer) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  bool F32(float* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s);
  bool Floats(std::vector<float>* v);
  bool Doubles(std::vector<double>* v);
  bool Ints(std::vector<int>* v);

  bool AtEnd() const { return position_ == buffer_.size(); }

  // Sticky truncation flag: once any read ran past the end of the buffer
  // (or a length prefix claimed more elements than the bytes left can
  // hold), every later read also fails and failed() stays true. Model
  // deserializers bail on the first false return, but the flag lets
  // LoadEstimatorBytes distinguish a *truncated/corrupt* stream (typed as
  // FailureKind::kCorruptModel) from a well-formed stream a deserializer
  // rejected on semantic grounds.
  bool failed() const { return failed_; }
  // Byte offset of the first failed read (buffer size bounds it); only
  // meaningful when failed().
  size_t failure_position() const { return failure_position_; }

 private:
  bool Raw(void* data, size_t bytes);
  // Reads a container's u64 element count, failing (before any allocation)
  // when the bytes left cannot hold that many `element_bytes` elements.
  bool Count(size_t element_bytes, uint64_t* count);
  bool Fail();
  const std::string& buffer_;
  size_t position_ = 0;
  bool failed_ = false;
  size_t failure_position_ = 0;
};

}  // namespace arecel

#endif  // ARECEL_UTIL_ARCHIVE_H_
