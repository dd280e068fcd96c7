// Flat containers behind the object store's indexes.
//
// The store keeps millions of small lists (a receiver's entries, a
// value's receivers, a group's members, an object's ancestors) and a
// few large key sets. Node-based hash maps spend more on nodes,
// buckets and per-list allocations than on the data, so the store
// uses three flat shapes instead:
//
//   ListArena  growable lists packed into one vector per column, read
//              as spans in insertion order;
//   FlatMap    an open-addressed map from an integer key to a value,
//              under PostingMap (an oid's list in an arena) and
//              PairMap (a pair of 32-bit ids to a 64-bit value);
//   IndexSet   an open-addressed set of indexes keyed by what they
//              index (an entry's receiver and args, an object's name).
//
// All of them are plain vectors underneath, so a store copy is a deep
// copy and moving a table keeps its buffers (and the spans read from
// it) in place. A span read from an arena is valid until the next
// append to that arena.

#ifndef PATHLOG_STORE_FLAT_TABLES_H_
#define PATHLOG_STORE_FLAT_TABLES_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/oid.h"

namespace pathlog {

/// What glibc's malloc takes for a request of `n` bytes: an 8-byte
/// header, 16-byte rounding, 32 bytes at least.
inline uint64_t ChunkBytes(uint64_t n) {
  return std::max<uint64_t>(32, (n + 8 + 15) & ~uint64_t{15});
}

/// Heap bytes a vector holds.
template <typename T>
uint64_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() == 0 ? 0 : ChunkBytes(v.capacity() * sizeof(T));
}

/// Where one list lives in a ListArena: `len` items from `off`, in a
/// block of bit_ceil(len) slots.
struct ListRef {
  uint32_t off = 0;
  uint32_t len = 0;
};

/// Growable lists packed into parallel columns (one vector per column
/// type). A list fills a block of a power-of-two number of slots and
/// moves to a block twice as large when it is full; the vacated block
/// is kept on a free list for its size and reused, whole or split in
/// halves, by the next lists that grow. Items keep their insertion
/// order.
template <typename... Cols>
class ListArena {
  using Tuple = std::tuple<Cols...>;
  template <size_t I>
  using Col = std::tuple_element_t<I, Tuple>;
  using First = Col<0>;
  static_assert((std::is_trivially_copyable_v<Cols> && ...));
  // A free block threads its successor through its first slot.
  static_assert(sizeof(First) >= sizeof(uint32_t));

 public:
  /// Column I of list `r`.
  template <size_t I = 0>
  std::span<const Col<I>> Get(ListRef r) const {
    return {std::get<I>(cols_).data() + r.off, r.len};
  }

  /// Appends one item (a value per column) to list `r`.
  void Append(ListRef* r, const Cols&... v) {
    if (r->len == BlockSize(r->len)) Grow(r);
    Put(r->off + r->len, std::index_sequence_for<Cols...>{}, v...);
    ++r->len;
  }

  uint64_t Bytes() const {
    return std::apply([](const auto&... c) { return (VectorBytes(c) + ...); },
                      cols_) +
           VectorBytes(free_);
  }

 private:
  static uint32_t BlockSize(uint32_t len) {
    return len == 0 ? 0 : std::bit_ceil(len);
  }

  template <size_t... I>
  void Put(size_t at, std::index_sequence<I...>, const Cols&... v) {
    ((std::get<I>(cols_)[at] = v), ...);
  }

  template <size_t... I>
  void Move(uint32_t from, uint32_t to, uint32_t n, std::index_sequence<I...>) {
    ((std::memmove(std::get<I>(cols_).data() + to,
                   std::get<I>(cols_).data() + from, n * sizeof(Col<I>))),
     ...);
  }

  /// Moves a full list `r` to a block twice its size.
  void Grow(ListRef* r) {
    const uint32_t size = r->len == 0 ? 1 : 2 * r->len;
    const uint32_t to = Allocate(static_cast<size_t>(std::countr_zero(size)));
    if (r->len > 0) {
      Move(r->off, to, r->len, std::index_sequence_for<Cols...>{});
      Free(r->off, static_cast<size_t>(std::countr_zero(r->len)));
    }
    r->off = to;
  }

  /// A block of 2^cls slots: a free one of that size, else the front
  /// of the smallest larger free block, split in halves whose back
  /// halves go on the free lists, else new slots at the end.
  uint32_t Allocate(size_t cls) {
    size_t c = cls;
    while (c < free_.size() && free_[c] == kNone) ++c;
    if (c >= free_.size()) {
      const uint32_t end = static_cast<uint32_t>(std::get<0>(cols_).size());
      std::apply([&](auto&... col) { (col.resize(end + (1u << cls)), ...); },
                 cols_);
      return end;
    }
    const uint32_t off = free_[c];
    std::memcpy(&free_[c], &std::get<0>(cols_)[off], sizeof(uint32_t));
    while (c > cls) {
      --c;
      Free(off + (1u << c), c);
    }
    return off;
  }

  void Free(uint32_t off, size_t cls) {
    if (free_.size() <= cls) free_.resize(cls + 1, kNone);
    std::memcpy(&std::get<0>(cols_)[off], &free_[cls], sizeof(uint32_t));
    free_[cls] = off;
  }

  static constexpr uint32_t kNone = UINT32_MAX;
  std::tuple<std::vector<Cols>...> cols_;
  /// Head of the free list of blocks of 2^i slots, per i.
  std::vector<uint32_t> free_;
};

/// Fibonacci hashing: spreads dense oids over a power-of-two table.
inline size_t SlotOf(uint64_t key, size_t mask) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

/// Slot count for `n` keys at a load factor of at most 3/4.
inline size_t SlotsFor(size_t n) {
  return n == 0 ? 0 : std::bit_ceil(std::max<size_t>(8, n + n / 3 + 1));
}

/// An open-addressed map from an integer key to a value, at a load of
/// at most 3/4. The key type's maximum marks an empty slot, so it is
/// never a key.
template <typename K, typename V>
class FlatMap {
 public:
  /// The value of `key`, or null.
  const V* Find(K key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = SlotOf(key, mask);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmpty) return nullptr;
    }
  }

  /// The value of `key`, value-initialised when it was absent, which
  /// `*added` reports.
  V& Insert(K key, bool* added) {
    if (4 * (size_ + 1) > 3 * slots_.size()) Rehash(SlotsFor(size_ + 1));
    const size_t mask = slots_.size() - 1;
    size_t i = SlotOf(key, mask);
    while (slots_[i].key != key && slots_[i].key != kEmpty) {
      i = (i + 1) & mask;
    }
    *added = slots_[i].key == kEmpty;
    if (*added) {
      slots_[i].key = key;
      ++size_;
    }
    return slots_[i].value;
  }

  /// Sizes the table for `n` keys.
  void Reserve(size_t n) {
    if (SlotsFor(n) > slots_.size()) Rehash(SlotsFor(n));
  }

  size_t size() const { return size_; }

  uint64_t Bytes() const { return VectorBytes(slots_); }

 private:
  static constexpr K kEmpty = std::numeric_limits<K>::max();
  struct Slot {
    K key = kEmpty;
    V value{};
  };

  void Rehash(size_t n) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(n, Slot{});
    const size_t mask = n - 1;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      size_t i = SlotOf(s.key, mask);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// A map from an oid to its list of T in insertion order (a posting
/// list), all lists in one arena.
template <typename T>
class PostingMap {
 public:
  /// The list of `key`; empty when it has none.
  std::span<const T> Find(Oid key) const {
    const ListRef* list = heads_.Find(key);
    return list == nullptr ? std::span<const T>() : lists_.Get(*list);
  }

  /// Appends `item` to the list of `key`; returns the list's length.
  uint32_t Append(Oid key, T item) {
    bool added;
    ListRef& list = heads_.Insert(key, &added);
    lists_.Append(&list, item);
    return list.len;
  }

  /// Sizes the table for `keys` distinct keys.
  void Reserve(size_t keys) { heads_.Reserve(keys); }

  /// Number of keys with a list.
  size_t keys() const { return heads_.size(); }

  uint64_t Bytes() const { return heads_.Bytes() + lists_.Bytes(); }

 private:
  FlatMap<Oid, ListRef> heads_;
  ListArena<T> lists_;
};

/// An open-addressed set of 32-bit indexes whose keys live elsewhere:
/// a method's (receiver, args) -> entry index, or the name -> object
/// intern table. Callers pass a key's hash, an equality test on an
/// index, and (to rehash) the hash of an index's key.
class IndexSet {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The index whose key `eq` accepts, or kNone.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq eq) const {
    if (slots_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = SlotOf(hash, mask);; i = (i + 1) & mask) {
      const uint32_t e = slots_[i];
      if (e == kNone || eq(e)) return e;
    }
  }

  /// Adds `idx`, whose key hashes to `hash` and is not present.
  template <typename HashOf>
  void Insert(uint32_t idx, uint64_t hash, HashOf hash_of) {
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      Rehash(SlotsFor(size_ + 1), hash_of);
    }
    Place(idx, hash);
    ++size_;
  }

  /// Sizes the set for `n` indexes.
  template <typename HashOf>
  void Reserve(size_t n, HashOf hash_of) {
    if (SlotsFor(n) > slots_.size()) Rehash(SlotsFor(n), hash_of);
  }

  uint64_t Bytes() const { return VectorBytes(slots_); }

 private:
  void Place(uint32_t idx, uint64_t hash) {
    const size_t mask = slots_.size() - 1;
    size_t i = SlotOf(hash, mask);
    while (slots_[i] != kNone) i = (i + 1) & mask;
    slots_[i] = idx;
  }

  template <typename HashOf>
  void Rehash(size_t n, HashOf hash_of) {
    std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(n, kNone);
    for (uint32_t e : old) {
      if (e != kNone) Place(e, hash_of(e));
    }
  }

  std::vector<uint32_t> slots_;
  size_t size_ = 0;
};

/// A map from a pair of 32-bit ids (not both UINT32_MAX) to a 64-bit
/// value.
class PairMap {
 public:
  static constexpr uint64_t kAbsent = UINT64_MAX;

  /// The value of (a, b), or kAbsent.
  uint64_t Find(uint32_t a, uint32_t b) const {
    const uint64_t* value = map_.Find(Key(a, b));
    return value == nullptr ? kAbsent : *value;
  }

  /// Maps (a, b) to `value` unless it is mapped; returns whether it
  /// was new.
  bool Insert(uint32_t a, uint32_t b, uint64_t value) {
    bool added;
    uint64_t& slot = map_.Insert(Key(a, b), &added);
    if (added) slot = value;
    return added;
  }

  /// Sizes the table for `n` pairs.
  void Reserve(size_t n) { map_.Reserve(n); }

  uint64_t Bytes() const { return map_.Bytes(); }

 private:
  static uint64_t Key(uint32_t a, uint32_t b) {
    return static_cast<uint64_t>(a) << 32 | b;
  }

  FlatMap<uint64_t, uint64_t> map_;
};

}  // namespace pathlog

#endif  // PATHLOG_STORE_FLAT_TABLES_H_
