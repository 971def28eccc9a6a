#include "serialize/binary.hh"

#include <algorithm>

namespace tetris::serialize
{

void
BinaryWriter::grow(size_t n)
{
    out_.resize(std::max(size_ + n, 2 * out_.size()));
}

void
BinaryWriter::str(std::string_view v)
{
    u64(v.size());
    bytes(v.data(), v.size());
}

std::string
BinaryReader::str()
{
    const uint64_t n = u64();
    const char *p = advance(static_cast<size_t>(n));
    return p ? std::string(p, static_cast<size_t>(n)) : std::string();
}

ByteSpan
BinaryReader::view(size_t n)
{
    const char *p = advance(n);
    return p ? ByteSpan(p, n) : ByteSpan();
}

} // namespace tetris::serialize
