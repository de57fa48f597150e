#include "crypto/ed25519.hpp"

#include <cstdlib>
#include <cstring>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace bla::crypto::ed25519 {

namespace {

using u64 = std::uint64_t;
// GCC/Clang extension: 128-bit intermediate products for the 51-bit-limb
// field multiplication. Guarded from -Wpedantic; both supported compilers
// provide it on all 64-bit targets.
__extension__ typedef unsigned __int128 u128;

// ---------------------------------------------------------------------------
// Field arithmetic mod p = 2^255 - 19, five 51-bit limbs.
// ---------------------------------------------------------------------------

constexpr u64 kMask51 = (u64{1} << 51) - 1;

struct Fe {
  u64 v[5];
};

constexpr Fe fe_zero() { return {{0, 0, 0, 0, 0}}; }
constexpr Fe fe_one() { return {{1, 0, 0, 0, 0}}; }

// d = -121665/121666, 2d and sqrt(-1) = 2^((p-1)/4) mod p.
constexpr Fe kD = {{0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                    0x739c663a03cbb, 0x52036cee2b6ff}};
constexpr Fe kD2 = {{0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                     0x6738cc7407977, 0x2406d9dc56dff}};
constexpr Fe kSqrtM1 = {{0x61b274a0ea0b0, 0x0d5a5fc8f189d, 0x7ef5e9cbd0c60,
                         0x78595a6804c9e, 0x2b8324804fc1d}};

// The primitives below are forced inline: they are the whole cost of
// every point operation, and a call returning a 40-byte Fe through memory
// costs as much as a fe_add.
//
// Limb bounds. fe_mul, fe_sq and fe_carry return "tight" limbs
// (< 2^51 + 2^20). fe_add and fe_sub do not carry — a serial carry chain
// costs about as much as a multiplication — so their results are "loose"
// (< 2^54), which fe_mul and fe_sq accept. fe_sub adds 4p before
// subtracting, so its subtrahend must be below 4p limb-wise (2^53 - 76):
// a tight value or the sum of two. Anything else goes through fe_carry
// first, as in fe_neg.

// Weak reduction: brings limbs below 2^51 + 2^20 with the top carry
// folded back as *19.
Fe fe_carry(const Fe& a) {
  Fe r = a;
  u64 c;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
  c = r.v[1] >> 51; r.v[1] &= kMask51; r.v[2] += c;
  c = r.v[2] >> 51; r.v[2] &= kMask51; r.v[3] += c;
  c = r.v[3] >> 51; r.v[3] &= kMask51; r.v[4] += c;
  c = r.v[4] >> 51; r.v[4] &= kMask51; r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
  return r;
}

[[gnu::always_inline]] inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

[[gnu::always_inline]] inline Fe fe_sub(const Fe& a, const Fe& b) {
  constexpr u64 kFourP0 = 0x1fffffffffffb4ULL;
  constexpr u64 kFourP1234 = 0x1ffffffffffffcULL;
  Fe r;
  r.v[0] = a.v[0] + kFourP0 - b.v[0];
  for (int i = 1; i < 5; ++i) r.v[i] = a.v[i] + kFourP1234 - b.v[i];
  return r;
}

Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), fe_carry(a)); }

// Carries five 128-bit column sums into limbs below ~2^52.
[[gnu::always_inline]] inline Fe fe_carry_wide(u128 r0, u128 r1, u128 r2,
                                               u128 r3, u128 r4) {
  u128 c;
  c = r0 >> 51; r0 &= kMask51; r1 += c;
  c = r1 >> 51; r1 &= kMask51; r2 += c;
  c = r2 >> 51; r2 &= kMask51; r3 += c;
  c = r3 >> 51; r3 &= kMask51; r4 += c;
  c = r4 >> 51; r4 &= kMask51; r0 += c * 19;
  c = r0 >> 51; r0 &= kMask51; r1 += c;
  return {{static_cast<u64>(r0), static_cast<u64>(r1), static_cast<u64>(r2),
           static_cast<u64>(r3), static_cast<u64>(r4)}};
}

[[gnu::always_inline]] inline u128 mul64(u64 a, u64 b) {
  return static_cast<u128>(a) * b;
}

[[gnu::always_inline]] inline Fe fe_mul(const Fe& f, const Fe& g) {
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3], g4 = g.v[4];
  const u64 g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
            g4_19 = 19 * g4;
  return fe_carry_wide(mul64(f0, g0) + mul64(f1, g4_19) + mul64(f2, g3_19) +
                           mul64(f3, g2_19) + mul64(f4, g1_19),
                       mul64(f0, g1) + mul64(f1, g0) + mul64(f2, g4_19) +
                           mul64(f3, g3_19) + mul64(f4, g2_19),
                       mul64(f0, g2) + mul64(f1, g1) + mul64(f2, g0) +
                           mul64(f3, g4_19) + mul64(f4, g3_19),
                       mul64(f0, g3) + mul64(f1, g2) + mul64(f2, g1) +
                           mul64(f3, g0) + mul64(f4, g4_19),
                       mul64(f0, g4) + mul64(f1, g3) + mul64(f2, g2) +
                           mul64(f3, g1) + mul64(f4, g0));
}

// Squaring: the 25 products of fe_mul fold to 15.
[[gnu::always_inline]] inline Fe fe_sq(const Fe& f) {
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 f0_2 = 2 * f0, f1_2 = 2 * f1, f2_2 = 2 * f2;
  const u64 f3_19 = 19 * f3, f4_19 = 19 * f4, f4_38 = 38 * f4;
  return fe_carry_wide(
      mul64(f0, f0) + mul64(f1_2, f4_19) + mul64(f2_2, f3_19),
      mul64(f0_2, f1) + mul64(f2_2, f4_19) + mul64(f3_19, f3),
      mul64(f0_2, f2) + mul64(f1, f1) + mul64(f4_38, f3),
      mul64(f0_2, f3) + mul64(f1_2, f2) + mul64(f4_19, f4),
      mul64(f0_2, f4) + mul64(f1_2, f3) + mul64(f2, f2));
}

// f^(2^n).
Fe fe_sqn(Fe f, int n) {
  for (int i = 0; i < n; ++i) f = fe_sq(f);
  return f;
}

// Canonical little-endian 32-byte encoding.
void fe_tobytes(std::uint8_t out[32], const Fe& a) {
  Fe t = fe_carry(a);  // now t < 2p
  // q = 1 iff t >= p, i.e. iff t + 19 reaches 2^255; then t - qp is
  // t + 19q with bit 255 dropped.
  u64 q = (t.v[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (t.v[i] + q) >> 51;
  t.v[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    t.v[i + 1] += t.v[i] >> 51;
    t.v[i] &= kMask51;
  }
  t.v[4] &= kMask51;
  // Pack 5x51 bits into 32 bytes.
  u64 packed[4];
  packed[0] = t.v[0] | (t.v[1] << 51);
  packed[1] = (t.v[1] >> 13) | (t.v[2] << 38);
  packed[2] = (t.v[2] >> 26) | (t.v[3] << 25);
  packed[3] = (t.v[3] >> 39) | (t.v[4] << 12);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out[8 * i + j] = static_cast<std::uint8_t>(packed[i] >> (8 * j));
    }
  }
}

Fe fe_frombytes(const std::uint8_t in[32]) {
  u64 packed[4];
  for (int i = 0; i < 4; ++i) {
    u64 v = 0;
    for (int j = 7; j >= 0; --j) v = (v << 8) | in[8 * i + j];
    packed[i] = v;
  }
  Fe r;
  r.v[0] = packed[0] & kMask51;
  r.v[1] = ((packed[0] >> 51) | (packed[1] << 13)) & kMask51;
  r.v[2] = ((packed[1] >> 38) | (packed[2] << 26)) & kMask51;
  r.v[3] = ((packed[2] >> 25) | (packed[3] << 39)) & kMask51;
  r.v[4] = (packed[3] >> 12) & kMask51;  // drops the sign bit (bit 255)
  return r;
}

bool fe_iszero(const Fe& a) {
  std::uint8_t b[32];
  fe_tobytes(b, a);
  std::uint8_t acc = 0;
  for (std::uint8_t x : b) acc |= x;
  return acc == 0;
}

bool fe_eq(const Fe& a, const Fe& b) {
  std::uint8_t ea[32];
  std::uint8_t eb[32];
  fe_tobytes(ea, a);
  fe_tobytes(eb, b);
  return std::memcmp(ea, eb, 32) == 0;
}

bool fe_isnegative(const Fe& a) {
  std::uint8_t b[32];
  fe_tobytes(b, a);
  return (b[0] & 1) != 0;
}

// f = flag ? g : f, flag in {0, 1}, without a branch on flag.
[[gnu::always_inline]] inline void fe_cmov(Fe& f, const Fe& g, u64 flag) {
  const u64 mask = 0 - flag;
  for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

// z^(2^250 - 1), the shared prefix of the two addition chains below
// (254 squarings and 11 multiplications in all); also returns z^11.
Fe fe_pow22501(const Fe& z, Fe& z11) {
  const Fe z2 = fe_sq(z);
  const Fe z9 = fe_mul(fe_sqn(z2, 2), z);
  z11 = fe_mul(z9, z2);
  const Fe z_5_0 = fe_mul(fe_sq(z11), z9);                 // 2^5 - 1
  const Fe z_10_0 = fe_mul(fe_sqn(z_5_0, 5), z_5_0);       // 2^10 - 1
  const Fe z_20_0 = fe_mul(fe_sqn(z_10_0, 10), z_10_0);    // 2^20 - 1
  const Fe z_40_0 = fe_mul(fe_sqn(z_20_0, 20), z_20_0);    // 2^40 - 1
  const Fe z_50_0 = fe_mul(fe_sqn(z_40_0, 10), z_10_0);    // 2^50 - 1
  const Fe z_100_0 = fe_mul(fe_sqn(z_50_0, 50), z_50_0);   // 2^100 - 1
  const Fe z_200_0 = fe_mul(fe_sqn(z_100_0, 100), z_100_0);  // 2^200 - 1
  return fe_mul(fe_sqn(z_200_0, 50), z_50_0);              // 2^250 - 1
}

// z^(p - 2) = z^(2^255 - 21) = z^-1.
Fe fe_invert(const Fe& z) {
  Fe z11;
  const Fe t = fe_pow22501(z, z11);
  return fe_mul(fe_sqn(t, 5), z11);
}

// z^((p - 5) / 8) = z^(2^252 - 3).
Fe fe_pow_p58(const Fe& z) {
  Fe z11;
  const Fe t = fe_pow22501(z, z11);
  return fe_mul(fe_sqn(t, 2), z);
}

// ---------------------------------------------------------------------------
// Group: twisted Edwards -x^2 + y^2 = 1 + d x^2 y^2, in the point
// representations of Bernstein et al., "High-speed high-security
// signatures" (CHES 2011):
//   P2   projective (X:Y:Z), x = X/Z, y = Y/Z — doubling input
//   P3   extended (X:Y:Z:T), additionally T = XY/Z — addition input
//   P1P1 completed ((X:Z), (Y:T)) — every operation's output
//   Cached  (Y+X, Y-X, Z, 2dT) of a P3, for repeated additions of it
//   Precomp (y+x, y-x, 2dxy) of an affine point, for table entries
// ---------------------------------------------------------------------------

struct P2 {
  Fe x, y, z;
};
struct P3 {
  Fe x, y, z, t;
};
struct P1P1 {
  Fe x, y, z, t;
};
struct Cached {
  Fe yplusx, yminusx, z, t2d;
};
struct Precomp {
  Fe yplusx, yminusx, xy2d;
};

constexpr P2 kP2Identity = {fe_zero(), fe_one(), fe_one()};
constexpr P3 kP3Identity = {fe_zero(), fe_one(), fe_one(), fe_zero()};
constexpr Precomp kPrecompIdentity = {fe_one(), fe_one(), fe_zero()};

P2 to_p2(const P1P1& p) {
  return {fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t)};
}

P3 to_p3(const P1P1& p) {
  return {fe_mul(p.x, p.t), fe_mul(p.y, p.z), fe_mul(p.z, p.t),
          fe_mul(p.x, p.y)};
}

Cached to_cached(const P3& p) {
  return {fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z, fe_mul(p.t, kD2)};
}

// 2p: 4 squarings and no multiplication.
P1P1 dbl(const P2& p) {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz2 = fe_add(fe_sq(p.z), fe_sq(p.z));
  const Fe xy2 = fe_sq(fe_add(p.x, p.y));
  P1P1 r;
  r.y = fe_add(yy, xx);
  r.z = fe_sub(yy, xx);
  r.x = fe_sub(xy2, r.y);
  r.t = fe_sub(fe_add(zz2, xx), yy);  // 2Z^2 - (YY - XX)
  return r;
}

P1P1 dbl(const P3& p) { return dbl(P2{p.x, p.y, p.z}); }

// p + q when `negate` is false, p - q when true (-q swaps y+x with y-x
// and negates t).
P1P1 add(const P3& p, const Cached& q, bool negate) {
  const Fe a = fe_mul(fe_add(p.y, p.x), negate ? q.yminusx : q.yplusx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), negate ? q.yplusx : q.yminusx);
  const Fe c = fe_mul(q.t2d, p.t);
  const Fe zz = fe_mul(p.z, q.z);
  const Fe d = fe_add(zz, zz);
  P1P1 r;
  r.x = fe_sub(a, b);
  r.y = fe_add(a, b);
  r.z = negate ? fe_sub(d, c) : fe_add(d, c);
  r.t = negate ? fe_add(d, c) : fe_sub(d, c);
  return r;
}

// p + q for an affine table entry q (its Z is 1).
P1P1 madd(const P3& p, const Precomp& q, bool negate) {
  const Fe a = fe_mul(fe_add(p.y, p.x), negate ? q.yminusx : q.yplusx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), negate ? q.yplusx : q.yminusx);
  const Fe c = fe_mul(q.xy2d, p.t);
  const Fe d = fe_add(p.z, p.z);
  P1P1 r;
  r.x = fe_sub(a, b);
  r.y = fe_add(a, b);
  r.z = negate ? fe_sub(d, c) : fe_add(d, c);
  r.t = negate ? fe_add(d, c) : fe_sub(d, c);
  return r;
}

void point_encode(std::uint8_t out[32], const Fe& x, const Fe& y,
                  const Fe& z) {
  const Fe zinv = fe_invert(z);
  fe_tobytes(out, fe_mul(y, zinv));
  if (fe_isnegative(fe_mul(x, zinv))) out[31] |= 0x80;
}

// Decompression (RFC 8032 §5.1.3). Returns nullopt on invalid encodings,
// including x = 0 with the sign bit set. Unlike §5.1.3, a y >= p is
// reduced mod p rather than rejected; verify's verdicts are pinned to
// that.
std::optional<P3> point_decode(const std::uint8_t in[32]) {
  const Fe y = fe_frombytes(in);
  const bool sign = (in[31] & 0x80) != 0;

  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());              // y^2 - 1
  const Fe v = fe_add(fe_mul(y2, kD), fe_one());  // d*y^2 + 1

  // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow_p58(fe_mul(u, v7)));

  const Fe vxx = fe_mul(v, fe_sq(x));
  if (!fe_eq(vxx, u)) {
    if (fe_eq(vxx, fe_neg(u))) {
      x = fe_mul(x, kSqrtM1);
    } else {
      return std::nullopt;  // not a point on the curve
    }
  }
  if (fe_iszero(x) && sign) return std::nullopt;  // -0 is non-canonical
  if (fe_isnegative(x) != sign) x = fe_carry(fe_neg(x));
  return P3{x, y, fe_one(), fe_mul(x, y)};
}

// The base point B: y = 4/5, x even.
constexpr P3 kBase = {
    {{0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d, 0x1ff60527118fe,
      0x216936d3cd6e5}},
    {{0x6666666666658, 0x4cccccccccccc, 0x1999999999999, 0x3333333333333,
      0x6666666666666}},
    fe_one(),
    {{0x68ab3a5b7dda3, 0x00eea2a5eadbb, 0x2af8df483c27e, 0x332b375274732,
      0x67875f0fd78b7}}};

// ---------------------------------------------------------------------------
// Tables of multiples of B, built once on first use.
// ---------------------------------------------------------------------------

// Odd multiples B, 3B, ..., 127B: verify's width-8 window over [S]B.
constexpr int kBaseWindow = 8;
constexpr int kBaseOdd = 1 << (kBaseWindow - 2);

struct BaseTables {
  // fixed[i][j] = (j+1) * 256^i * B: sign/keygen's radix-16 scan.
  Precomp fixed[32][8];
  Precomp odd[kBaseOdd];
};

// Affine table entries for a batch of points: one inversion for all of
// them (Montgomery's trick).
void to_precomp(const P3* points, Precomp* out, std::size_t count) {
  std::vector<Fe> prefix(count);
  Fe acc = fe_one();
  for (std::size_t i = 0; i < count; ++i) {
    prefix[i] = acc;
    acc = fe_mul(acc, points[i].z);
  }
  Fe inv = fe_invert(acc);  // 1 / (z_0 ... z_{count-1})
  for (std::size_t i = count; i-- > 0;) {
    const Fe zinv = fe_mul(inv, prefix[i]);
    inv = fe_mul(inv, points[i].z);
    const Fe x = fe_mul(points[i].x, zinv);
    const Fe y = fe_mul(points[i].y, zinv);
    out[i] = {fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), kD2)};
  }
}

BaseTables make_base_tables() {
  BaseTables t;
  std::vector<P3> points;
  points.reserve(32 * 8);
  P3 row = kBase;  // 256^i * B
  for (int i = 0; i < 32; ++i) {
    const Cached row_c = to_cached(row);
    P3 multiple = row;
    for (int j = 0; j < 8; ++j) {
      points.push_back(multiple);
      multiple = to_p3(add(multiple, row_c, false));
    }
    for (int k = 0; k < 8; ++k) row = to_p3(dbl(row));
  }
  to_precomp(points.data(), &t.fixed[0][0], points.size());

  points.clear();
  const Cached b2 = to_cached(to_p3(dbl(kBase)));
  P3 odd = kBase;
  for (int i = 0; i < kBaseOdd; ++i) {
    points.push_back(odd);
    odd = to_p3(add(odd, b2, false));
  }
  to_precomp(points.data(), t.odd, points.size());
  return t;
}

const BaseTables& base_tables() {
  static const BaseTables tables = make_base_tables();
  return tables;
}

// fixed[pos][|b| - 1], negated when b < 0, the identity when b = 0, for
// b in [-8, 8]. Reads every entry of the row and picks with masks, so
// neither the memory access pattern nor a branch depends on the secret
// digit.
Precomp select_fixed(int pos, std::int8_t b) {
  const u64 negative =
      static_cast<u64>(static_cast<std::int64_t>(b)) >> 63;  // 1 iff b < 0
  const u64 magnitude = (static_cast<u64>(b) ^ (0 - negative)) + negative;
  Precomp t = kPrecompIdentity;
  const Precomp* row = base_tables().fixed[pos];
  for (u64 j = 0; j < 8; ++j) {
    const u64 x = magnitude ^ (j + 1);
    const u64 equal = (x - 1) >> 63;  // 1 iff x == 0
    fe_cmov(t.yplusx, row[j].yplusx, equal);
    fe_cmov(t.yminusx, row[j].yminusx, equal);
    fe_cmov(t.xy2d, row[j].xy2d, equal);
  }
  const Precomp minus = {t.yminusx, t.yplusx, fe_neg(t.xy2d)};
  fe_cmov(t.yplusx, minus.yplusx, negative);
  fe_cmov(t.yminusx, minus.yminusx, negative);
  fe_cmov(t.xy2d, minus.xy2d, negative);
  return t;
}

// [a]B for a secret scalar a < 2^255 (clamped key or nonce): signed
// radix-16 digits e_i in [-8, 8], a = sum e_i 16^i, summed as
// 16 * sum_odd e_i 16^(i-1) B + sum_even e_i 16^i B over the fixed table.
// 64 table additions and 4 doublings, none of them skipped for a zero
// digit.
P3 scalarmult_base(const std::uint8_t a[32]) {
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(a[i] >> 4);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = static_cast<std::int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<std::int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  P3 h = kP3Identity;
  for (int i = 1; i < 64; i += 2) {
    h = to_p3(madd(h, select_fixed(i / 2, e[i]), false));
  }
  P2 s = to_p2(dbl(h));
  s = to_p2(dbl(s));
  s = to_p2(dbl(s));
  h = to_p3(dbl(s));
  for (int i = 0; i < 64; i += 2) {
    h = to_p3(madd(h, select_fixed(i / 2, e[i]), false));
  }
  return h;
}

// Width-w non-adjacent form of a scalar below 2^253: digits odd and
// |d| < 2^(w-1), any two nonzero digits at least w apart.
void wnaf(std::int8_t naf[256], const std::uint8_t s[32], int w) {
  u64 x[5] = {};
  for (int i = 0; i < 32; ++i) x[i / 8] |= u64{s[i]} << (8 * (i % 8));
  std::memset(naf, 0, 256);
  const u64 width = u64{1} << w;
  u64 carry = 0;
  for (int pos = 0; pos < 256;) {
    const int idx = pos / 64;
    const int bit = pos % 64;
    u64 buf = x[idx] >> bit;
    if (bit > 64 - w) buf |= x[idx + 1] << (64 - bit);
    const u64 window = carry + (buf & (width - 1));
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<std::int8_t>(static_cast<int>(window) -
                                          static_cast<int>(width));
    }
    pos += w;
  }
}

// [s]B - [k]A in one pass of shared doublings (Straus), with width-8 NAF
// digits of s over the static odd-multiple table and width-5 digits of k
// over A, 3A, ..., 15A. Variable time: verify's inputs are public.
P2 double_scalarmult_vartime(const std::uint8_t s[32], const std::uint8_t k[32],
                             const P3& a) {
  std::int8_t s_naf[256];
  std::int8_t k_naf[256];
  wnaf(s_naf, s, kBaseWindow);
  wnaf(k_naf, k, 5);

  Cached a_odd[8];  // (2i+1) A
  a_odd[0] = to_cached(a);
  const P3 a2 = to_p3(dbl(a));
  for (int i = 1; i < 8; ++i) {
    a_odd[i] = to_cached(to_p3(add(a2, a_odd[i - 1], false)));
  }
  const Precomp* b_odd = base_tables().odd;

  int i = 255;
  while (i >= 0 && s_naf[i] == 0 && k_naf[i] == 0) --i;
  P2 r = kP2Identity;
  for (; i >= 0; --i) {
    P1P1 t = dbl(r);
    if (k_naf[i] != 0) {
      t = add(to_p3(t), a_odd[std::abs(k_naf[i]) / 2], k_naf[i] > 0);
    }
    if (s_naf[i] != 0) {
      t = madd(to_p3(t), b_odd[std::abs(s_naf[i]) / 2], s_naf[i] < 0);
    }
    r = to_p2(t);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L = 2^252 + 27742317777372353535851937790883648493,
// 64-bit little-endian limbs, Barrett reduction (Handbook of Applied
// Cryptography, Alg. 14.42, base 2^64, k = 4). The final corrections
// subtract L under a mask, not a branch.
// ---------------------------------------------------------------------------

using Scalar = std::array<u64, 4>;

constexpr u64 kOrderL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                            0x0000000000000000ULL, 0x1000000000000000ULL};
// floor(2^512 / L).
constexpr u64 kBarrettMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                               0xffffffffffffffebULL, 0xffffffffffffffffULL,
                               0x000000000000000fULL};

Scalar scalar_load(const std::uint8_t in[32]) {
  Scalar r{};
  for (int i = 0; i < 32; ++i) r[i / 8] |= u64{in[i]} << (8 * (i % 8));
  return r;
}

void scalar_store(std::uint8_t out[32], const Scalar& a) {
  for (int i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(a[i / 8] >> (8 * (i % 8)));
  }
}

// x mod L for a 512-bit x.
Scalar scalar_reduce(const u64 x[8]) {
  // q = floor(floor(x / 2^192) * mu / 2^320) is floor(x / L), or up to 2
  // below it.
  u64 q2[10] = {};
  for (int i = 0; i < 5; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 5; ++j) {
      carry += static_cast<u128>(x[3 + i]) * kBarrettMu[j] + q2[i + j];
      q2[i + j] = static_cast<u64>(carry);
      carry >>= 64;
    }
    q2[i + 5] = static_cast<u64>(carry);
  }
  const u64* q = q2 + 5;
  // r = (x - q * L) mod 2^320, which is < 3L.
  u64 ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    u128 carry = 0;
    for (int j = 0; i + j < 5; ++j) {
      carry += static_cast<u128>(q[i]) * (j < 4 ? kOrderL[j] : 0) + ql[i + j];
      ql[i + j] = static_cast<u64>(carry);
      carry >>= 64;
    }
  }
  u64 r[5];
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = static_cast<u128>(x[i]) - ql[i] - borrow;
    r[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 127);
  }
  for (int pass = 0; pass < 2; ++pass) {
    u64 t[5];
    borrow = 0;
    for (int i = 0; i < 5; ++i) {
      const u128 d =
          static_cast<u128>(r[i]) - (i < 4 ? kOrderL[i] : 0) - borrow;
      t[i] = static_cast<u64>(d);
      borrow = static_cast<u64>(d >> 127);
    }
    const u64 keep_t = borrow - 1;  // all ones iff r >= L
    for (int i = 0; i < 5; ++i) r[i] = (t[i] & keep_t) | (r[i] & ~keep_t);
  }
  return {r[0], r[1], r[2], r[3]};
}

Scalar scalar_reduce_digest(const Sha512::Digest& h) {
  u64 x[8] = {};
  for (int i = 0; i < 64; ++i) x[i / 8] |= u64{h[i]} << (8 * (i % 8));
  return scalar_reduce(x);
}

// (a * b + c) mod L, for a, b, c < 2^256.
Scalar scalar_muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  u64 x[8] = {};
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      carry += static_cast<u128>(a[i]) * b[j] + x[i + j];
      x[i + j] = static_cast<u64>(carry);
      carry >>= 64;
    }
    x[i + 4] = static_cast<u64>(carry);
  }
  u128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    carry += static_cast<u128>(x[i]) + (i < 4 ? c[i] : 0);
    x[i] = static_cast<u64>(carry);
    carry >>= 64;
  }
  return scalar_reduce(x);
}

bool scalar_is_canonical(const std::uint8_t s[32]) {
  const Scalar v = scalar_load(s);
  for (int i = 3; i >= 0; --i) {
    if (v[i] != kOrderL[i]) return v[i] < kOrderL[i];
  }
  return false;  // s == L
}

// ---------------------------------------------------------------------------
// RFC 8032 sign/verify.
// ---------------------------------------------------------------------------

struct ExpandedKey {
  std::uint8_t scalar[32];  // clamped secret scalar a
  std::uint8_t prefix[32];  // nonce prefix
};

ExpandedKey expand_seed(const Seed& seed) {
  const Sha512::Digest h = Sha512::hash(std::span(seed.data(), seed.size()));
  ExpandedKey k{};
  std::memcpy(k.scalar, h.data(), 32);
  std::memcpy(k.prefix, h.data() + 32, 32);
  k.scalar[0] &= 0xf8;
  k.scalar[31] &= 0x7f;
  k.scalar[31] |= 0x40;
  return k;
}

}  // namespace

Keypair keypair_from_seed(const Seed& seed) {
  const ExpandedKey k = expand_seed(seed);
  const P3 a = scalarmult_base(k.scalar);
  Keypair kp;
  kp.seed = seed;
  point_encode(kp.public_key.data(), a.x, a.y, a.z);
  return kp;
}

Keypair keypair_from_label(std::uint64_t label) {
  wire::Encoder enc;
  enc.str("latticebft-ed25519-seed");
  enc.u64(label);
  const Sha256::Digest d = Sha256::hash(std::span(enc.view()));
  Seed seed{};
  std::memcpy(seed.data(), d.data(), seed.size());
  return keypair_from_seed(seed);
}

Signature sign(const Keypair& kp, std::span<const std::uint8_t> message) {
  const ExpandedKey k = expand_seed(kp.seed);

  // r = SHA-512(prefix || M) mod L.
  Sha512 hr;
  hr.update(std::span(k.prefix, 32));
  hr.update(message);
  const Scalar r = scalar_reduce_digest(hr.finish());
  std::uint8_t r_bytes[32];
  scalar_store(r_bytes, r);

  // R = [r]B.
  const P3 r_point = scalarmult_base(r_bytes);
  Signature sig{};
  point_encode(sig.data(), r_point.x, r_point.y, r_point.z);

  // k = SHA-512(R || A || M) mod L.
  Sha512 hk;
  hk.update(std::span(sig.data(), 32));
  hk.update(std::span(kp.public_key.data(), 32));
  hk.update(message);
  const Scalar challenge = scalar_reduce_digest(hk.finish());

  // S = (r + k*a) mod L.
  const Scalar s = scalar_muladd(challenge, scalar_load(k.scalar), r);
  scalar_store(sig.data() + 32, s);
  return sig;
}

bool verify(const PublicKey& pub, std::span<const std::uint8_t> message,
            const Signature& sig) {
  if (!scalar_is_canonical(sig.data() + 32)) return false;
  const auto a_point = point_decode(pub.data());
  if (!a_point.has_value()) return false;
  // R is not decoded: the check compares canonical encodings, and an R
  // equal to one is a point that decodes, so an R that does not decode
  // is rejected there.

  Sha512 hk;
  hk.update(std::span(sig.data(), 32));
  hk.update(std::span(pub.data(), 32));
  hk.update(message);
  std::uint8_t k_bytes[32];
  scalar_store(k_bytes, scalar_reduce_digest(hk.finish()));

  // Cofactorless: accept iff the encoding of [S]B - [k]A equals R's bytes.
  const P2 check = double_scalarmult_vartime(sig.data() + 32, k_bytes,
                                             *a_point);
  std::uint8_t check_enc[32];
  point_encode(check_enc, check.x, check.y, check.z);
  return std::memcmp(check_enc, sig.data(), 32) == 0;
}

}  // namespace bla::crypto::ed25519
