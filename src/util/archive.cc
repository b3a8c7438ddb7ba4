#include "util/archive.h"

#include <cstring>

namespace arecel {

ByteWriter ByteWriter::Counting() {
  ByteWriter writer;
  writer.counting_only_ = true;
  return writer;
}

void ByteWriter::Raw(const void* data, size_t bytes) {
  bytes_written_ += bytes;
  if (!counting_only_)
    buffer_.append(static_cast<const char*>(data), bytes);
}

void ByteWriter::Str(const std::string& s) {
  U64(s.size());
  Raw(s.data(), s.size());
}

void ByteWriter::Floats(const std::vector<float>& v) {
  U64(v.size());
  Raw(v.data(), v.size() * sizeof(float));
}

void ByteWriter::Doubles(const std::vector<double>& v) {
  U64(v.size());
  F64s(v);
}

void ByteWriter::F64s(std::span<const double> v) {
  Raw(v.data(), v.size() * sizeof(double));
}

void ByteWriter::Ints(const std::vector<int>& v) {
  U64(v.size());
  Raw(v.data(), v.size() * sizeof(int));
}

bool ByteReader::Fail() {
  if (!failed_) {
    failed_ = true;
    failure_position_ = position_;
  }
  return false;
}

bool ByteReader::Raw(void* data, size_t bytes) {
  if (failed_ || position_ + bytes > buffer_.size()) return Fail();
  // An empty container's data() may be null, which memcpy must not see.
  if (bytes > 0) std::memcpy(data, buffer_.data() + position_, bytes);
  position_ += bytes;
  return true;
}

bool ByteReader::Count(size_t element_bytes, uint64_t* count) {
  if (!U64(count)) return false;
  // Every element still has to be read from the buffer, so a count the
  // remaining bytes cannot hold is corrupt. Checking before the caller's
  // resize keeps a bad length prefix from driving a huge allocation.
  if (*count > (buffer_.size() - position_) / element_bytes) return Fail();
  return true;
}

bool ByteReader::Str(std::string* s) {
  uint64_t size = 0;
  if (!Count(1, &size)) return false;
  s->resize(size);
  return Raw(s->data(), size);
}

bool ByteReader::Floats(std::vector<float>* v) {
  uint64_t size = 0;
  if (!Count(sizeof(float), &size)) return false;
  v->resize(size);
  return Raw(v->data(), size * sizeof(float));
}

bool ByteReader::Doubles(std::vector<double>* v) {
  uint64_t size = 0;
  if (!Count(sizeof(double), &size)) return false;
  v->resize(size);
  return Raw(v->data(), size * sizeof(double));
}

bool ByteReader::Ints(std::vector<int>* v) {
  uint64_t size = 0;
  if (!Count(sizeof(int), &size)) return false;
  v->resize(size);
  return Raw(v->data(), size * sizeof(int));
}

}  // namespace arecel
