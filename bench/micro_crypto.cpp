// M1 — google-benchmark micro benches for the crypto substrate: hashing,
// MACs, Ed25519 sign/verify. These quantify the per-message cost floor
// of the §8 signature-based protocols. The context header names the
// SHA-256 kernel this CPU runs (sha256_kernel: sha-ni or portable).

#include <benchmark/benchmark.h>

#include <string>

#include "crypto/ed25519.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/signer.hpp"

namespace {

using namespace bla;

void BM_Sha256(benchmark::State& state) {
  const wire::Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 32 bytes is one digest: hash-of-hashes, memo keys and content keys.
BENCHMARK(BM_Sha256)->Arg(32)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha512(benchmark::State& state) {
  const wire::Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha512::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const wire::Bytes key(32, 0x11);
  const wire::Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_Ed25519Keygen(benchmark::State& state) {
  std::uint64_t label = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519::keypair_from_label(++label));
  }
}
BENCHMARK(BM_Ed25519Keygen);

// Message sizes: 256 bytes, and 1 400 bytes — a GSbS batch on the wire.
void BM_Ed25519Sign(benchmark::State& state) {
  const auto kp = crypto::ed25519::keypair_from_label(1);
  const wire::Bytes msg(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519::sign(kp, msg));
  }
}
BENCHMARK(BM_Ed25519Sign)->Arg(256)->Arg(1400);

void BM_Ed25519Verify(benchmark::State& state) {
  const auto kp = crypto::ed25519::keypair_from_label(1);
  const wire::Bytes msg(static_cast<std::size_t>(state.range(0)), 0x42);
  const auto sig = crypto::ed25519::sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519::verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify)->Arg(256)->Arg(1400);

void BM_SignerSign(benchmark::State& state) {
  auto set = state.range(0) == 0 ? crypto::make_hmac_signer_set(4)
                                 : crypto::make_ed25519_signer_set(4);
  auto signer = set->signer_for(0);
  const wire::Bytes msg(256, 0x42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer->sign(msg));
  }
}
BENCHMARK(BM_SignerSign)->Arg(0)->Arg(1);  // 0 = HMAC oracle, 1 = Ed25519

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("sha256_kernel",
                              std::string(crypto::sha256_kernel()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
