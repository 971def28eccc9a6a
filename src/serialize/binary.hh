/**
 * @file
 * Binary (de)serialization primitives for on-disk artifacts.
 *
 * A byte-oriented writer/reader pair with an explicit little-endian
 * wire format, independent of host endianness and struct layout.
 * Strings and byte blobs are length-prefixed. The reader never
 * throws: any overrun or malformed length flips a sticky fail flag
 * and subsequent reads return zero values, so callers validate one
 * ok() check at the end instead of guarding every field — corrupt
 * input degrades to "decode failed", never to UB or an abort.
 *
 * The reader decodes over a borrowed ByteSpan and never copies the
 * underlying buffer, so it works equally over an in-memory string
 * and over an mmap'ed artifact (serialize/mmap_file.hh): the bytes
 * of a .tca file are decoded straight out of the page cache.
 *
 * Both halves are inline: a fixed-width field costs one bounds check
 * plus one memcpy on little-endian hosts (an explicit byte loop on
 * others), so encoding or decoding a circuit makes no call per field.
 */

#ifndef TETRIS_SERIALIZE_BINARY_HH
#define TETRIS_SERIALIZE_BINARY_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/endian.hh"

namespace tetris::serialize
{

/**
 * A borrowed, non-owning view of raw bytes. Decoders taking a
 * ByteSpan promise zero-copy access: the caller keeps the backing
 * storage (string, mapped file) alive for the duration of the call.
 */
using ByteSpan = std::string_view;

/**
 * Append-only little-endian encoder over a growable byte string.
 *
 * Every fixed-width field is an inline bounds check plus a store:
 * the buffer is grown geometrically ahead of the write cursor, and
 * reserve() sizes it once when the caller knows the final length.
 */
class BinaryWriter
{
  public:
    /** Make room for `n` bytes in total without further growth. */
    void
    reserve(size_t n)
    {
        if (n > out_.size())
            out_.resize(n);
    }

    void u8(uint8_t v) { *room(1) = static_cast<char>(v); }
    void u32(uint32_t v) { storeLe(room(4), v); }
    void u64(uint64_t v) { storeLe(room(8), v); }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
    /** IEEE-754 bit pattern; NaN/inf round-trip exactly. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }
    /** u64 length prefix followed by the raw bytes. */
    void str(std::string_view v);

    void
    bytes(const void *data, size_t n)
    {
        if (n != 0)
            std::memcpy(room(n), data, n);
    }

    /** Overwrite the u64 written earlier at byte offset `at`. */
    void
    patchU64(size_t at, uint64_t v)
    {
        storeLe(out_.data() + at, v);
    }

    /** The bytes written so far, borrowed until the next write. */
    ByteSpan span() const { return ByteSpan(out_.data(), size_); }

    /** The bytes written so far, as a string (drops the scratch). */
    const std::string &
    data()
    {
        out_.resize(size_);
        return out_;
    }

    /** Move the written bytes out; the writer is spent afterwards. */
    std::string
    take() &&
    {
        out_.resize(size_);
        return std::move(out_);
    }

    size_t size() const { return size_; }

  private:
    /** Advance the cursor by n and return where those bytes go. */
    char *
    room(size_t n)
    {
        if (n > out_.size() - size_)
            grow(n);
        char *p = out_.data() + size_;
        size_ += n;
        return p;
    }

    void grow(size_t n);

    /** Sized ahead of the cursor; bytes past size_ are scratch. */
    std::string out_;
    size_t size_ = 0;
};

/** Non-throwing decoder over a borrowed byte range. */
class BinaryReader
{
  public:
    explicit BinaryReader(ByteSpan data) : data_(data) {}

    uint8_t
    u8()
    {
        const char *p = advance(1);
        return p ? static_cast<uint8_t>(*p) : 0;
    }

    uint32_t
    u32()
    {
        const char *p = advance(4);
        return p ? loadLe<uint32_t>(p) : 0;
    }

    uint64_t
    u64()
    {
        const char *p = advance(8);
        return p ? loadLe<uint64_t>(p) : 0;
    }

    int32_t i32() { return static_cast<int32_t>(u32()); }
    double f64() { return std::bit_cast<double>(u64()); }
    /** Fails (and returns "") if the length prefix overruns. */
    std::string str();

    /** True while every read so far stayed in bounds. */
    bool ok() const { return ok_; }
    /** Mark the stream bad explicitly (semantic validation). */
    void fail() { ok_ = false; }
    size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    /**
     * Borrow the next n bytes without copying; empty view + fail on
     * overrun. Used to checksum a payload in place.
     */
    ByteSpan view(size_t n);

  private:
    /** The next n bytes, or nullptr (and fail) on overrun. */
    const char *
    advance(size_t n)
    {
        if (!ok_ || n > data_.size() - pos_) {
            ok_ = false;
            return nullptr;
        }
        const char *p = data_.data() + pos_;
        pos_ += n;
        return p;
    }

    ByteSpan data_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace tetris::serialize

#endif // TETRIS_SERIALIZE_BINARY_HH
