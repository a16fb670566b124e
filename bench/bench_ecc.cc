/**
 * @file
 * ECC substrate throughput bench: encode / syndrome-screen / decode
 * MSym/s for every Reed-Solomon codec the schemes use, in the states
 * that matter (clean word, corrupted word, erasure decode), measured
 * for both the table-driven fast pipeline and the retained reference
 * implementation, so the fast path's speedup is tracked per PR.
 *
 * Output: one human line and one bench_common jsonRow per
 * (codec, impl, path).  The JSON rows carry
 *
 *  - `check`: a decode-output hash that is a pure function of the
 *    fixed iteration count and seeds -- CI diffs it across 1-vs-N
 *    thread runs (with `threads` and the timing fields normalised);
 *  - `msym_s` / `ns_word`: the throughput numbers (timing-dependent,
 *    normalised away by the CI diff, tracked via the artifact).
 *
 * ARCC_BENCH_ECC_ITERS overrides the per-path iteration budget.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "arcc/ecc_scheme.hh"
#include "bench_common.hh"
#include "common/rng.hh"
#include "ecc/gf256_simd.hh"
#include "ecc/lot_ecc.hh"
#include "ecc/reed_solomon.hh"
#include "ecc/rs_reference.hh"
#include "ecc/rs_workspace.hh"
#include "ecc/secded.hh"

using namespace arcc;
using namespace arcc::bench;

namespace
{

std::uint64_t
iterBudget()
{
    return std::max<std::uint64_t>(
        1, envU64("ARCC_BENCH_ECC_ITERS", 100000));
}

/** A scaled-down share of the budget, never zero. */
std::uint64_t
budgetShare(std::uint64_t divisor)
{
    return std::max<std::uint64_t>(1, iterBudget() / divisor);
}

/** Decode-output accumulator: order-sensitive, timing-independent. */
struct Check
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    mix(std::uint64_t v)
    {
        h = (h ^ v) * 0x100000001b3ULL;
    }

    void
    mixBytes(std::span<const std::uint8_t> bytes)
    {
        for (std::uint8_t b : bytes)
            mix(b);
    }
};

/** Time `body(iters)` and emit the human + JSON rows. */
template <class Body>
void
report(const char *codec, const char *impl, const char *path,
       std::uint64_t iters, int symbols_per_word, Body &&body)
{
    Check check;
    const auto start = std::chrono::steady_clock::now();
    body(iters, check);
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    const double ns_word = ns / static_cast<double>(iters);
    const double msym_s =
        symbols_per_word / ns_word * 1e3; // sym/ns -> MSym/s.

    std::printf("  %-9s %-4s %-16s %10.1f MSym/s  %8.1f ns/word\n",
                codec, impl, path, msym_s, ns_word);
    jsonRow("ecc", {
                       {"codec", std::string("\"") + codec + "\""},
                       {"impl", std::string("\"") + impl + "\""},
                       {"path", std::string("\"") + path + "\""},
                       {"iters", jsonNum(iters)},
                       {"check", jsonNum(check.h)},
                       {"msym_s", jsonNum(msym_s)},
                       {"ns_word", jsonNum(ns_word)},
                   });
}

/** One codec's full sweep, fast and reference side by side. */
void
benchCodec(const char *name, int n, int k)
{
    const ReedSolomon fast(n, k);
    const RsReference ref(n, k);
    RsWorkspace ws;
    const std::uint64_t iters = iterBudget();
    // The reference decoder is an order of magnitude slower; keep its
    // share of the runtime proportionate.
    const std::uint64_t ref_iters = budgetShare(10);

    Rng rng(42);
    std::vector<std::uint8_t> clean(n);
    for (int i = 0; i < k; ++i)
        clean[i] = static_cast<std::uint8_t>(rng.below(256));
    fast.encode(clean);
    std::vector<std::uint8_t> word = clean;
    const std::vector<int> erasures = {7};

    // --- encode -------------------------------------------------------
    report(name, "fast", "encode", iters, n,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   fast.encode(word);
                   c.mix(word[static_cast<std::size_t>(k)]);
               }
           });
    report(name, "ref", "encode", ref_iters, n,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   ref.encode(word);
                   c.mix(word[static_cast<std::size_t>(k)]);
               }
           });

    // --- clean-word syndrome screen ----------------------------------
    report(name, "fast", "syndrome_clean", iters, n,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i)
                   c.mix(fast.syndromesZero(clean) ? 1 : 0);
           });
    report(name, "ref", "syndrome_clean", ref_iters, n,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i)
                   c.mix(ref.syndromesZero(clean) ? 1 : 0);
           });

    // --- clean-word decode -------------------------------------------
    report(name, "fast", "decode_clean", iters, n,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   const RsDecodeView res = fast.decode(word, ws);
                   c.mix(static_cast<std::uint64_t>(res.status));
               }
           });
    report(name, "ref", "decode_clean", ref_iters, n,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   const DecodeResult res = ref.decode(word);
                   c.mix(static_cast<std::uint64_t>(res.status));
               }
           });

    // --- corrupted-word decode (one symbol error) --------------------
    const std::uint64_t corrupt_iters = budgetShare(5);
    report(name, "fast", "decode_1err", corrupt_iters, n,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   word = clean;
                   word[5] ^= 0x7b;
                   const RsDecodeView res = fast.decode(word, ws, 1);
                   c.mix(static_cast<std::uint64_t>(res.status));
                   c.mixBytes(word);
               }
           });
    report(name, "ref", "decode_1err", ref_iters, n,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   word = clean;
                   word[5] ^= 0x7b;
                   const DecodeResult res = ref.decode(word, 1);
                   c.mix(static_cast<std::uint64_t>(res.status));
                   c.mixBytes(word);
               }
           });

    // --- batched syndrome screen + decode ----------------------------
    // The fast pipeline runs the whole block through the SoA vector
    // kernels (one computeSyndromesSoa / decodeSoa call per pass);
    // the reference runs the same words one at a time -- the speedup
    // the scrub sweep and accessBatch see.
    {
        constexpr int kLanes = RsWorkspace::kSoaLanes;
        std::vector<std::uint8_t> block(
            static_cast<std::size_t>(kLanes) * n);
        for (int l = 0; l < kLanes; ++l) {
            std::uint8_t *w =
                block.data() + static_cast<std::size_t>(l) * n;
            for (int i = 0; i < k; ++i)
                w[i] = static_cast<std::uint8_t>(rng.below(256));
            fast.encode(std::span<std::uint8_t>(
                w, static_cast<std::size_t>(n)));
        }
        gfsimd::soaScatter(block.data(), n, n, kLanes, ws.soa.data(),
                           kLanes);
        const std::uint64_t batch_iters = budgetShare(kLanes);
        const std::uint64_t batch_ref_iters = budgetShare(kLanes * 10);
        RsLaneResult results[kLanes];

        report(name, "fast", "syndrome_batch", batch_iters, n * kLanes,
               [&](std::uint64_t it, Check &c) {
                   for (std::uint64_t i = 0; i < it; ++i) {
                       c.mix(fast.computeSyndromesSoa(
                                 ws.soa.data(), kLanes, kLanes,
                                 ws.syndSoa.data(), ws.soaFlags.data())
                                 ? 1
                                 : 0);
                   }
               });
        report(name, "ref", "syndrome_batch", batch_ref_iters,
               n * kLanes, [&](std::uint64_t it, Check &c) {
                   for (std::uint64_t i = 0; i < it; ++i) {
                       std::uint64_t any = 0;
                       for (int l = 0; l < kLanes; ++l) {
                           const std::uint8_t *w =
                               block.data() +
                               static_cast<std::size_t>(l) * n;
                           any |= ref.syndromesZero(
                                      std::span<const std::uint8_t>(
                                          w,
                                          static_cast<std::size_t>(n)))
                                      ? 0
                                      : 1;
                       }
                       c.mix(any);
                   }
               });

        report(name, "fast", "decode_batch", batch_iters, n * kLanes,
               [&](std::uint64_t it, Check &c) {
                   for (std::uint64_t i = 0; i < it; ++i) {
                       // One lane takes a hit; decodeSoa repairs it,
                       // so the block re-enters clean every pass.
                       ws.soa[static_cast<std::size_t>(5) * kLanes +
                              9] ^= 0x7b;
                       fast.decodeSoa(ws.soa.data(), kLanes, kLanes,
                                      ws, -1, {}, results);
                       c.mix(static_cast<std::uint64_t>(
                           results[9].status));
                   }
               });
        report(name, "ref", "decode_batch", batch_ref_iters, n * kLanes,
               [&](std::uint64_t it, Check &c) {
                   std::vector<std::uint8_t> w(
                       static_cast<std::size_t>(n));
                   for (std::uint64_t i = 0; i < it; ++i) {
                       std::uint64_t status = 0;
                       for (int l = 0; l < kLanes; ++l) {
                           const std::uint8_t *src =
                               block.data() +
                               static_cast<std::size_t>(l) * n;
                           std::copy(src, src + n, w.begin());
                           if (l == 9)
                               w[5] ^= 0x7b;
                           const DecodeResult res = ref.decode(w);
                           if (l == 9)
                               status = static_cast<std::uint64_t>(
                                   res.status);
                       }
                       c.mix(status);
                   }
               });
    }

    // --- erasure + error decode (r >= 4 codecs) ----------------------
    if (n - k >= 4) {
        report(name, "fast", "decode_erasure", corrupt_iters, n,
               [&](std::uint64_t it, Check &c) {
                   for (std::uint64_t i = 0; i < it; ++i) {
                       word = clean;
                       word[7] = 0xaa;
                       word[20] ^= 0x31;
                       const RsDecodeView res =
                           fast.decode(word, ws, -1, erasures);
                       c.mix(static_cast<std::uint64_t>(res.status));
                       c.mixBytes(word);
                   }
               });
        report(name, "ref", "decode_erasure", ref_iters, n,
               [&](std::uint64_t it, Check &c) {
                   for (std::uint64_t i = 0; i < it; ++i) {
                       word = clean;
                       word[7] = 0xaa;
                       word[20] ^= 0x31;
                       const DecodeResult res =
                           ref.decode(word, -1, erasures);
                       c.mix(static_cast<std::uint64_t>(res.status));
                       c.mixBytes(word);
                   }
               });
    }
}

/** SECDED (the 9-device baseline the paper leaves behind). */
void
benchSecded()
{
    const std::uint64_t iters = iterBudget();
    Rng rng(43);
    const std::uint64_t data = rng.next();
    const std::uint8_t code = Secded::encode(data);

    report("secded", "fast", "encode", iters, 8,
           [&](std::uint64_t it, Check &c) {
               std::uint64_t d = data;
               for (std::uint64_t i = 0; i < it; ++i) {
                   c.mix(Secded::encode(d));
                   ++d;
               }
           });
    report("secded", "fast", "decode_1err", iters, 8,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   std::uint64_t d = data ^ (1ULL << 17);
                   std::uint8_t ck = code;
                   const Secded::Result res = Secded::decode(d, ck);
                   c.mix(d ^ static_cast<std::uint64_t>(res.status));
               }
           });
}

/** LOT-ECC encode (checksums + XOR parity). */
void
benchLot(const char *name, int data_devices, int line_bytes)
{
    const LotEcc lot(data_devices, line_bytes);
    const std::uint64_t iters = budgetShare(5);
    Rng rng(44);
    std::vector<std::uint8_t> line(line_bytes);
    for (auto &b : line)
        b = static_cast<std::uint8_t>(rng.below(256));
    LotLine enc;

    report(name, "fast", "encode", iters, line_bytes,
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   lot.encodeInto(line, enc);
                   c.mix(enc.checksums[0]);
               }
           });
}

/** Full line-codec path: encode, kill a device, decode -- what one
 *  faulty-memory read costs the functional model. */
void
benchLineCodec(const char *name,
               std::unique_ptr<LineCodec> (*make)())
{
    const std::unique_ptr<LineCodec> codec = make();
    LineWorkspace ws;
    const std::uint64_t iters = budgetShare(20);
    Rng rng(45);
    std::vector<std::uint8_t> data(codec->dataBytes());
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.below(256));
    DeviceSlices slices;
    std::vector<std::uint8_t> out(codec->dataBytes());
    DecodeResult dec;

    report(name, "fast", "line_kill_path", iters, codec->dataBytes(),
           [&](std::uint64_t it, Check &c) {
               for (std::uint64_t i = 0; i < it; ++i) {
                   codec->encodeInto(data, slices, ws);
                   for (auto &b : slices[3])
                       b ^= 0x55;
                   codec->decodeInto(slices, out, {}, ws, dec);
                   c.mix(static_cast<std::uint64_t>(dec.status));
                   c.mix(static_cast<std::uint64_t>(
                       dec.symbolsCorrected));
               }
           });
}

} // anonymous namespace

int
main()
{
    std::printf("ECC codec throughput (fast = table-driven workspace "
                "pipeline, ref = retained oracle)\n");
    benchCodec("rs18_16", 18, 16);
    benchCodec("rs36_32", 36, 32);
    benchCodec("rs72_64", 72, 64);
    benchSecded();
    benchLot("lot9", 8, 64);
    benchLot("lot18", 16, 128);
    benchLineCodec("arcc_relaxed", schemes::arccRelaxed);
    benchLineCodec("arcc_upgraded", schemes::arccUpgraded);
    return 0;
}
