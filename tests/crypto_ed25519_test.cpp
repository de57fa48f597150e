// Ed25519 against the RFC 8032 §7.1 test vectors, plus behavioural
// properties (tamper resistance, cross-key rejection, malformed input).

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string_view>

#include "crypto/ed25519.hpp"
#include "wire/wire.hpp"

namespace bla::crypto::ed25519 {
namespace {

Seed seed_from_hex(const std::string& hex) {
  const wire::Bytes b = wire::from_hex(hex);
  Seed s{};
  std::memcpy(s.data(), b.data(), s.size());
  return s;
}

std::string hex(std::span<const std::uint8_t> b) { return wire::to_hex(b); }

struct Rfc8032Vector {
  const char* name;
  const char* secret;
  const char* public_key;
  const char* message;
  const char* signature;
};

const Rfc8032Vector kVectors[] = {
    {"TEST1_empty",
     "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
     "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"TEST2_one_byte",
     "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
     "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"TEST3_two_bytes",
     "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

class Rfc8032 : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Rfc8032, PublicKeyDerivation) {
  const auto& v = GetParam();
  const Keypair kp = keypair_from_seed(seed_from_hex(v.secret));
  EXPECT_EQ(hex(kp.public_key), v.public_key);
}

TEST_P(Rfc8032, SignatureMatches) {
  const auto& v = GetParam();
  const Keypair kp = keypair_from_seed(seed_from_hex(v.secret));
  const wire::Bytes msg = wire::from_hex(v.message);
  const Signature sig = sign(kp, msg);
  EXPECT_EQ(hex(sig), v.signature);
}

TEST_P(Rfc8032, SignatureVerifies) {
  const auto& v = GetParam();
  const Keypair kp = keypair_from_seed(seed_from_hex(v.secret));
  const wire::Bytes msg = wire::from_hex(v.message);
  const wire::Bytes sig_bytes = wire::from_hex(v.signature);
  Signature sig{};
  std::memcpy(sig.data(), sig_bytes.data(), sig.size());
  EXPECT_TRUE(verify(kp.public_key, msg, sig));
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, Rfc8032, ::testing::ValuesIn(kVectors),
    [](const ::testing::TestParamInfo<Rfc8032Vector>& param_info) {
      return param_info.param.name;
    });

// ---------------------------------------------------------------------------
// Known answers from an independent implementation (pyca/cryptography
// 48.0.0 over OpenSSL), generated offline by:
//
//   import hashlib
//   from cryptography.hazmat.primitives.asymmetric.ed25519 import (
//       Ed25519PrivateKey)
//   from cryptography.hazmat.primitives import serialization
//   for i, n in enumerate(LENS):  # the lengths below, in order
//       seed = hashlib.sha256(b"ed25519-kat-%d" % i).digest()
//       msg = bytes((j * 31 + i * 7) & 0xFF for j in range(n))
//       key = Ed25519PrivateKey.from_private_bytes(seed)
//       pub = key.public_key().public_bytes(
//           serialization.Encoding.Raw, serialization.PublicFormat.Raw)
//       print(n, seed.hex(), pub.hex(), key.sign(msg).hex())
//
// Lengths straddle the SHA-512 block boundaries and include 1 400 bytes,
// the size of a GSbS batch.
// ---------------------------------------------------------------------------

struct KnownAnswer {
  std::size_t length;
  const char* seed;
  const char* public_key;
  const char* signature;
};

const KnownAnswer kKnownAnswers[] = {
    {0, "950cd9ace64038449065b08214d5827065d46b86bb7923eba402d9500a794079",
     "d9dc829970dd2d1b43481e192b95d4abd76639ee78fce503cf6043ea5c03af5e",
     "bbcab395d4674ca0ddc5c5f9866739a64e7906b6fa25bd48d5b9e86de155ea08"
     "3e2518092832c0d08e22038c898d1e0269a6d043aaaf63c5d3b55dabf9fd1c0e"},
    {1, "7203a69f6c9b5bd8dfec08bf87c3228334ed6bba12b0ce610a348d7462c6afd8",
     "45b649c02f30f0872b22e914233211e41b2b0c828eb18133d5ef5b576aaea331",
     "2e417c233802cc463759713eb2fe6fb95a8f5ee4ea7cc25520eb99392b79a5fc"
     "492b47eab2dd302e15948e4623400faddde49d42738e56d2ba448f496f882308"},
    {2, "b0fa73632e741cbde091c3d794a9ba8a318e1de326f145f5ac78ab5d0549d8f8",
     "b24e52e0650033a5960af28804d55045eb856a1bf200b24e55df8438b73b81ff",
     "87c325ad3fb832715c0a27db802ef2b9aeed3aa960c27b81e64312014ffac658"
     "75a5ecaf719046de6c084a28d49230bd1884289cc6dfd71b3afdddf6672b2201"},
    {3, "8d10de0c1187be0cde8ff3007018f2ac177a78115c376a714f000d48bb84bee6",
     "81e77f0958230c6b6f7b4efa70dc75d6c7b57ce8405cbc620a2e77b373d37a99",
     "d5405e7a54c7605b54c63869aa87ee3a199fbb80bb56a2f556fb4a76d1477ab5"
     "310a4f2c01960013895cc11425a831b1900d245b2ff2b289e637ec40d8c52b0e"},
    {31, "53b260ee6d9ea8fcf19091053075dcd59e240e82125957b31d0313f1f7ea11c5",
     "fe1e13956385420cf8265f91a94582dedcfe7cc7a87cc7eb49b2dd35488ca7d8",
     "cfff6f0e44f23ce3f9f509ba9d03a4171d99198a8fed7e338e47c798e490ec4c"
     "055ee850ffc358687f26a8bbebe644e6e8080fb26fc204639dcf1b9aaa586d04"},
    {32, "2a85472f4480e0543ffe302690db50e43024f294e2c268918b44add875fd84fa",
     "c4aee6d69954b7420080d76b78a9367b99ff5b1be51b55e14961405d8bf8ed39",
     "c679d035b1cb87cca7d71f8630ced34897ac79982e2fc7d4bd47f15b98cca5be"
     "c0d041fcdb41d612fc9126ee26d0fd14ffaa3a389a7d4f40a33dfbc132c2a50d"},
    {33, "bbef0f8472b164847a3c8983f1133ed4f7cb2a4cadb30f2b2ecad1f506f12ed2",
     "476f58e238145b47135f8a3bf58750b0e9ac8f02c9baffa44642e623774238b1",
     "00bb4c21586f94b34b1e85d844f7fe5e3e2ec426059964e3436505847a0fbe25"
     "d03931b13f09d8d058adac37dbd7ca1b57868d144f6a46659a0f34d5b834d209"},
    {63, "8e578b82e04009f9188296d68fe47d9a3eb7c77fa601d15dcba323448e2f6337",
     "dce1c51eea09e1fa57ce161d49a32ddb875cf63bc65d73850c58b6c65927b598",
     "473b23c15f354bc2f4a4bb544642e5e347e073e32ead87e3c321d700d153170a"
     "e7b856a20c0512e9e59c894f54ee3f46d4446b8faa507bf7b3275ca630026a00"},
    {64, "5268437548798d1b38b5b23bafd1595e3a613d490ce10c8f45b20604b85b5340",
     "4fba264c6a7a96080812d15c3ff4c41917fb0d3cb6c0decc163df74e50ade69c",
     "f3be8ac5f94b0901e4862a96477c3431c28445d88b7eab597ebb83fc83ab3e7c"
     "354924bb8090b8ef146365d7ce997519ff19973bf1432f585e9dcc7e58035e0d"},
    {65, "b14a388d9b943029f3dae025386ad10e63f711542aa7a8697fbe811bcdb2e726",
     "5408ab395a214498d8978a45fb9535320dfc2334258e1464597f72a8e6bda3f8",
     "862d712f6e8c17578a33400f83b3571fe2e490e264c67b2b37a694c814cbb11c"
     "56af21a6e39c91ca8de0e5f307a69a3900bee60362212da9d06f0262c87d7c0a"},
    {111, "d302a492ec82665cda63ecb554cd1dea7bbc9949c291eedc169b650720346622",
     "538c0d4c06b66be05f7e003a1787b050a3b00ae0bf9f0809f5bfbf55b059aa45",
     "d9640553eb1617c34b43b5f08e455e450563837c20e2b7c9fd202f9ff37a56c4"
     "48ca35f7b0a794f55a544e6de409538c5294bc42b1d63fb1a83c884caf41f80b"},
    {112, "6870a84dfca6477bd8f8f0dceb07350f340e6dbf8636534471d33a9ac037a0ea",
     "127f97432350cfc5ae3b7c3553fe68c21501c143c2b2d7b40b6608423989d3b2",
     "80bd3c1e926a9dbbf7ea2543cf5b0016dda7f426f8cc8cbfc9b132798097ec21"
     "86efda775a7d52ee76814347dfe05426d58c2629d4eb4755129372e1646e7409"},
    {113, "9c8f714bc9d115fac752fee25748621b22f24317cfa14dd949ab60e25f28f62e",
     "814194109ed91990ca3ac5322b0843555b47f4f63bdf8e0d85b505f51472511f",
     "4eaf81453fb339e7df27ddaff9e9267bb8b8433eccb4a47089ee203ae39b0ed2"
     "3b704dade8f91aa20170d855aee2bf25742e10d25112ccd6d663354c5288b001"},
    {127, "04f841c905bb9799541acb13e200f56de204fd57172e33ee74e7e6c1357098bc",
     "fe6a3586eabc2e29508145d62fa9d7259ee581e380279853d523c4b04c740cdc",
     "6f4dfb6cebe5e65596723085a5151b1aa83f483a2819e4cca7538d87b4ab7be1"
     "57c5655c373b8ea7333172cb5d9a5eee5054622ab83b55c9f1a84d8d4c42ce07"},
    {128, "8a5305b22c2444bdfcd00377ae4df968575a768965570a4f51fc466dd2eb344f",
     "531282978a023ee8dc6418a9774a48a0ce1abdc999153fd2f880c1e3078cb315",
     "f38f9e032b5f9e524313a62fdaadaf953431ebefe353321fa1a444f605bd6efd"
     "7a98901d443aa18100d0e2918387e28e689318776e250d582433a8a3a4104302"},
    {129, "8a19c9eb8cc912f7eabe6ac5b8fab0355d709679648a9f61ba3269a95d1a2186",
     "57c466cb8b5b177a5dc4b18082c4bbcbf630c2a2b17892413c919b2dd49ac594",
     "1943f7a802a83424a7970a6ddd2f5d0def83d56aaa35ad065e159d5913b8cba5"
     "43d38d0a4e55ed24df1e2af744434c3fd73440d37c7013e76e3ebb4819e7770a"},
    {200, "46ddd38031f733cc84d9fc92ff127778557c17b719032736d1b841147b5bce12",
     "25267f67e2b70fc33f067e17ee45891745a919dd56b005ad26200a3514b8d8e6",
     "cfa30fc2dec6777296148a2705142781ba17f4feb56f1fe0f44fa65eaccd93f6"
     "22d70a95d48b3e62e0c3510415e82191540e8cbbe7f7957ea511a662ec5a130c"},
    {255, "cc761ec554dafc90b823c5f1ae53ad4c9a798a010ac6545064dcae23a80f8512",
     "fdb2b50202bf989c611f801109bcfb619ebbd23d829113d318b04d29c4286d65",
     "819f245ddb3f89b30017c9ba3fe2f70c1ce8d2273a8fc105247b9776e47919a8"
     "6d7250734e035960b8e26a2134ecbe063431b69bf88c727cd57dce82f5416801"},
    {256, "2214784db5ccc596fb94fb58b0fee0a88db7f04706bb0a138c36f831980f3df9",
     "bade7f8e6fa2edefd2b286c83df74cab0db0f320ca1229de0e975eb404f2ddac",
     "f7299c45f34eee87e8d23058383014b4528042f9d7810c4177e17c9d5b13c1bc"
     "c6ae4866488d2d18a624a510fab225e7bbe184a1f2d97aa5a1fae222c575000d"},
    {257, "b4fb8c6ecfbddf4a2df51a89fbc85da9d2f0dd46d11f5dcb186807dc36844dc0",
     "6a98d1d4ee736a2344a8c1efc0d820fb53d323b117f847db0b740fb1356d07dd",
     "a834dd26c77374312ba1adc3412a5a8a6115407bc18d25729f0fb78a913c458f"
     "3efd0ef8fd04b70834607a82e43edd262d3044ae0457d240e049bffc29f7bc07"},
    {500, "905ccf98e9e158a82ccbbb485f84d2939c707140d6b95643a560205b3b785314",
     "3a2a94c13c4e874a6fe8008503078a2a7497c0f9bd571fd4c63a7a22f1b1bf71",
     "e4d04004cc291bb3ab053a833dab91b8bbf38c15d5a43995bdfbecc7e0c5f6ff"
     "d595bad283b91ba62353108e9159b31561638a28607de9682095bf913badb60a"},
    {511, "8fb57b8198a9b08a706813e04720f47726827d137b75f92e809385ff3d3b97be",
     "8797c0a0ee8d35179e822483acdca0e6147ca7d131a642832879c98b5fe60df4",
     "eea4c28c28a98d59597b9b61fb929cad29b4c2e04fbf75ecacf4c72b0dc086a2"
     "14c24bacead4a5e92d7141cd93edc7127f31bee68d214a9dca20b892caac800d"},
    {512, "9b980a1941dd719d7e090373d6c4f58bc0a086ffad643a1e62b8250035ae7eb5",
     "4ec12c8ff094abe7f11f9602f98ec5e16522a91a77e5098d7fa7659485b7ff43",
     "cc41c0bb39a42d9f080656e4f6d414b2ad76c1dc56cde06f31a458d9c079df3a"
     "4a2cf6134c560303464d1332bb79ae6209b5fef7694971f31d35986388326a00"},
    {513, "18ac238ee90d42ffd4cab84cda6d7f1bee8aa77507358b48c38965b74a1a375e",
     "38aa7a70242075b928117673fbbb1c05c67c5c75a4ad06ad9aac03a8e229931b",
     "e9c7def7199112296fb7fa4d83a1ec635a04949de04f4e8ed8786281827f8367"
     "cb0a92904a802860313fb3696568c49e79184119ea5409ae9676f8c9853ccb0d"},
    {1000, "2091167eb879761a665dc36671471c1ca4de8c122d4b680e63f12ba3ae29968e",
     "a28db76945415c77f032f82e533f7623bb51de5996867f58e266e45404339671",
     "0da366ce5538d9decc74fad5fd2fb3648d82cba46c5ad18df84a55eb8fa60cd7"
     "3b58eea2a38538150b9d1e3aae9e6279cea848dabd940b275e28b0f37e9e1e01"},
    {1023, "8048796d53f46169a3e05fc58b2590905607a4b660ea98e2d40b1a9cf4ed3f69",
     "11e202ad59b7c1be0e0b1b95c121cf1ae5990f6e32c4792b6d6603522d6adf0f",
     "08b378144f117e3c73ebee4ad271922b98db086bf0e19faa3d64f337498c4cff"
     "57309edc24fe3a03c6cec1878c6579da76cc2ae427d8665e2c2670ceb4b5a302"},
    {1024, "9e270134b9c23a714faeb56a8ce372d30618102b6b3374a7193380417b9f66bd",
     "5af7790859afd77025d91d3f2467036377f9037d7f7df0045f6640802ff27b9b",
     "6626d4b96c78f948773369b5a9d1ecd480d16045f59c9e5e5832d626db6f6740"
     "595ba201cf4ffd0f642b7f8d12b7845a21f90a2e74d7e8003b7169e02b1d060e"},
    {1025, "42408b4a9dfa4701cf4e7848c42d800103d66fc6f390f406b48fbbc0df38dea9",
     "3844df35edd119ff49befaa0736da50ac42a23663ce168a9cc0649574fa1b0a4",
     "2dfae91e04014f536de003ac2462313407bcae7cb49c1835438a4319970733eb"
     "4bb6de9c5a3ec8477a9dbc55cb8ad3014caecc7e7f8370a1790380aa7a24990c"},
    {1399, "8f30e638cff86ba366f9273110db04c04616b215aa5f9e1ee980870febeb01eb",
     "93f4a1307815e10f56d02c9a38ff5edacc365494076f91cf53cbafa39738a930",
     "f87171cbc0594eaae8bf5b32b5f027ec9507fd86bf0b2fc6576499b74c943a6d"
     "9241413b7ca3357b8dd817ae413e9f4ba0b0b713f2e92dbc496929a7b614e407"},
    {1400, "b870165573671a680a21f6f9ad639ab0dd7c5779a0c4655d8e33fa9d9817d14b",
     "763f2868704fdb5381f2318bbad070a3cf0e98b45f98209963744237429394a7",
     "92236d6c186aae4e20139db2ca990fe00057ced04518b11b91eae9d960533040"
     "4959badbde936abe4cc3c271f877082ecd0994edb4a5545d3bf391d9ee9d6605"},
    {1401, "2039a0ca99f11ef7a1acde8acc9f9ba9485d2b37a7a0b849e6b1b576f3e0461e",
     "c9c0f6982b9c599d5c89a84eb63cf13e766a228f3c63206879189b85f5de833b",
     "c6405f005772e4fe13d55a7923ec10a7b4203a6c70b8efbdb54a02c40d7758e5"
     "f1da0cbc55db8b49d175c63e666ce9a86b760c8cc39f79b61cc7ea466f9aa205"},
    {2048, "a98ca2df9fa42e1008a9dacbdd1cb31379ed7ecb58a5f482697c2b9957a06390",
     "439a7f954f1ae38a63e340098780c923f9bdd3b521e73cb933d9eedffae98aa4",
     "52c120769a7af14780f1f28b3899899131d5dc5eb24045946ebdcc3bd7c8aab9"
     "8dea9a6f9c4c8dbdcee0796e59d18a6014715ac756817cfc6e9592b01ce40e00"},
};

wire::Bytes known_answer_message(std::size_t index, std::size_t length) {
  wire::Bytes msg(length);
  for (std::size_t j = 0; j < length; ++j) {
    msg[j] = static_cast<std::uint8_t>((j * 31 + index * 7) & 0xFF);
  }
  return msg;
}

TEST(Ed25519KnownAnswers, KeysSignaturesAndVerdictsMatch) {
  static_assert(std::size(kKnownAnswers) >= 32);
  for (std::size_t i = 0; i < std::size(kKnownAnswers); ++i) {
    const KnownAnswer& v = kKnownAnswers[i];
    const Keypair kp = keypair_from_seed(seed_from_hex(v.seed));
    const wire::Bytes msg = known_answer_message(i, v.length);
    EXPECT_EQ(hex(kp.public_key), v.public_key) << "vector " << i;
    const Signature sig = sign(kp, msg);
    EXPECT_EQ(hex(sig), v.signature) << "vector " << i;
    EXPECT_TRUE(verify(kp.public_key, msg, sig)) << "vector " << i;
    if (!msg.empty()) {
      wire::Bytes bad = msg;
      bad[i % bad.size()] ^= 0x80;
      EXPECT_FALSE(verify(kp.public_key, bad, sig)) << "vector " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Verdicts on crafted inputs, pinned to those of the earlier
// double-and-add implementation (cofactorless check: accept iff
// encode([S]B - [k]A) equals R's bytes; S >= L rejected; A decoded with
// y reduced mod p; x = 0 with the sign bit set rejected). Unless named
// otherwise the message is "verdict" and the valid key is
// keypair_from_label(1); the small-order encodings are the eight of the
// curve's torsion subgroup.
// ---------------------------------------------------------------------------

struct CraftedVerdict {
  const char* name;
  const char* message;
  const char* public_key;
  const char* signature;
  bool accepted;
};

const CraftedVerdict kCraftedVerdicts[] = {
    {"valid", "verdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e838",
     "57c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "10d38e81df74d48c8277e3af48a57f0d0b7c11fb53d703d3e14c48e3700c7303",
     true},
    {"s_is_l_minus_1", "verdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e838",
     "57c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010",
     false},
    {"s_is_l", "verdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e838",
     "57c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010",
     false},
    {"s_is_2_256_minus_1", "verdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e838",
     "57c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     false},
    {"s_plus_l", "verdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e838",
     "57c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "fda684def9d7e6e45814db52279f5e220b7c11fb53d703d3e14c48e3700c7313",
     false},
    {"r_flipped", "verdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e838",
     "56c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "10d38e81df74d48c8277e3af48a57f0d0b7c11fb53d703d3e14c48e3700c7303",
     false},
    {"message_flipped", "werdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e838",
     "57c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "10d38e81df74d48c8277e3af48a57f0d0b7c11fb53d703d3e14c48e3700c7303",
     false},
    {"a_negated", "verdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e8b8",
     "57c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "10d38e81df74d48c8277e3af48a57f0d0b7c11fb53d703d3e14c48e3700c7303",
     false},
    {"a_identity_r_b_s_1", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_identity_r_same_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_order2_r_b_s_1", "verdict",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order2_r_same_s_0", "verdict",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_identity_r_order2_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order4_r_b_s_1", "verdict",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_order4_r_same_s_0", "verdict",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_identity_r_order4_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order4_sign_r_b_s_1", "verdict",
     "0000000000000000000000000000000000000000000000000000000000000080",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order4_sign_r_same_s_0", "verdict",
     "0000000000000000000000000000000000000000000000000000000000000080",
     "0000000000000000000000000000000000000000000000000000000000000080"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_identity_r_order4_sign_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000080"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order8_a_r_b_s_1", "verdict",
     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order8_a_r_same_s_0", "verdict",
     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_identity_r_order8_a_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order8_b_r_b_s_1", "verdict",
     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order8_b_r_same_s_0", "verdict",
     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_identity_r_order8_b_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order8_c_r_b_s_1", "verdict",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order8_c_r_same_s_0", "verdict",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_identity_r_order8_c_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order8_d_r_b_s_1", "verdict",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order8_d_r_same_s_0", "verdict",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_identity_r_order8_d_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_y_is_p_plus_1_r_b_s_1", "verdict",
     "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_y_is_p_r_b_s_1", "verdict",
     "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_y_is_p_r_order4_s_0", "verdict",
     "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "0000000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true},
    {"a_identity_r_y_is_p_plus_1_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_identity_r_y_is_p_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_identity_x0_sign_r_b_s_1", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000080",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_order2_x0_sign_r_b_s_1", "verdict",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "5866666666666666666666666666666666666666666666666666666666666666"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_identity_r_identity_x0_sign_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "0100000000000000000000000000000000000000000000000000000000000080"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_identity_r_order2_x0_sign_s_0", "verdict",
     "0100000000000000000000000000000000000000000000000000000000000000",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false},
    {"a_not_on_curve", "verdict",
     "0200000000000000000000000000000000000000000000000000000000000000",
     "57c2eba1fb5216ef9347d5623daa4288884f10a0c84f543c0dc7cc17ab9625e4"
     "10d38e81df74d48c8277e3af48a57f0d0b7c11fb53d703d3e14c48e3700c7303",
     false},
    {"r_not_on_curve", "verdict",
     "0c2bb5be29569643f1276500f1e600a2c0680221242104cf0aa31846db12e838",
     "0200000000000000000000000000000000000000000000000000000000000000"
     "0100000000000000000000000000000000000000000000000000000000000000",
     false},
};

TEST(Ed25519Verdicts, CraftedInputsKeepTheirVerdicts) {
  for (const CraftedVerdict& v : kCraftedVerdicts) {
    PublicKey pub{};
    const wire::Bytes pub_bytes = wire::from_hex(v.public_key);
    std::memcpy(pub.data(), pub_bytes.data(), pub.size());
    Signature sig{};
    const wire::Bytes sig_bytes = wire::from_hex(v.signature);
    std::memcpy(sig.data(), sig_bytes.data(), sig.size());
    const std::string_view text(v.message);
    const wire::Bytes msg(text.begin(), text.end());
    EXPECT_EQ(verify(pub, msg, sig), v.accepted) << v.name;
  }
}

TEST(Ed25519, SignVerifyRoundTripManyMessages) {
  const Keypair kp = keypair_from_label(7);
  for (int i = 0; i < 16; ++i) {
    wire::Encoder enc;
    enc.str("message");
    enc.u32(i);
    const Signature sig = sign(kp, enc.view());
    EXPECT_TRUE(verify(kp.public_key, enc.view(), sig)) << i;
  }
}

TEST(Ed25519, TamperedMessageRejected) {
  const Keypair kp = keypair_from_label(1);
  wire::Bytes msg{1, 2, 3, 4};
  const Signature sig = sign(kp, msg);
  msg[2] ^= 1;
  EXPECT_FALSE(verify(kp.public_key, msg, sig));
}

TEST(Ed25519, TamperedSignatureRejected) {
  const Keypair kp = keypair_from_label(2);
  const wire::Bytes msg{9, 9, 9};
  Signature sig = sign(kp, msg);
  for (std::size_t pos : {0u, 31u, 32u, 63u}) {
    Signature bad = sig;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(verify(kp.public_key, msg, bad)) << "pos=" << pos;
  }
}

TEST(Ed25519, WrongKeyRejected) {
  const Keypair kp1 = keypair_from_label(3);
  const Keypair kp2 = keypair_from_label(4);
  const wire::Bytes msg{42};
  const Signature sig = sign(kp1, msg);
  EXPECT_FALSE(verify(kp2.public_key, msg, sig));
}

TEST(Ed25519, NonCanonicalScalarRejected) {
  // S >= L must be rejected (malleability defence).
  const Keypair kp = keypair_from_label(5);
  const wire::Bytes msg{1};
  Signature sig = sign(kp, msg);
  // Force the scalar to 2^255 - 1, far above L.
  std::memset(sig.data() + 32, 0xff, 31);
  sig[63] = 0x7f;
  EXPECT_FALSE(verify(kp.public_key, msg, sig));
}

TEST(Ed25519, GarbagePointRejected) {
  const Keypair kp = keypair_from_label(6);
  const wire::Bytes msg{1};
  Signature sig = sign(kp, msg);
  // Replace R with a y-coordinate that is not on the curve.
  std::memset(sig.data(), 0x13, 32);
  sig[31] &= 0x7f;
  // Either decodes to a different point (verify fails) or fails to decode.
  EXPECT_FALSE(verify(kp.public_key, msg, sig));
}

TEST(Ed25519, DistinctLabelsDistinctKeys) {
  const Keypair a = keypair_from_label(100);
  const Keypair b = keypair_from_label(101);
  EXPECT_NE(hex(a.public_key), hex(b.public_key));
}

TEST(Ed25519, DeterministicSignatures) {
  const Keypair kp = keypair_from_label(8);
  const wire::Bytes msg{5, 5, 5};
  EXPECT_EQ(hex(sign(kp, msg)), hex(sign(kp, msg)));
}

}  // namespace
}  // namespace bla::crypto::ed25519
