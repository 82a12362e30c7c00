// verification.hpp — trustworthy generated content (§7 "Ethics and Trust").
//
// "The trustworthiness of generated data is another aspect that needs to
// be carefully studied.  This is not only a problem of the generated
// content diverging semantically from the original, but also of verifying
// generated content on end-user devices."
//
// Mechanism: a *semantic digest* — the sign pattern of the authored
// prompt's embedding in the shared semantic space, carried in the
// generated-content metadata ("digest", 16 hex characters).  Verification
// is two-staged, because the two failure modes have different structure:
//
//   1. prompt integrity (exact): the client recomputes the digest of the
//      prompt it received; any tampering with the prompt in transit or in
//      cache mismatches deterministically.
//   2. semantic faithfulness (statistical): the generated image's
//      recovered embedding must agree with the digest within a Hamming
//      budget — catching a corrupted/substituted generator whose output
//      no longer carries the prompt's semantics.  Medium-fidelity models
//      legitimately sit closer to the noise floor, so this stage uses a
//      wider budget than stage 1's zero tolerance.
//
// Both must hold for the item to count as verified.
#pragma once

#include <cstdint>
#include <string>

#include "genai/embedding.hpp"
#include "genai/image.hpp"

namespace sww::core {

/// 64-bit semantic signature: bit i = sign of embedding component i.
using SemanticDigest = std::uint64_t;

/// Digest of an embedding: the sign bits of its components.
SemanticDigest DigestOfEmbedding(const genai::Vec& embedding);

/// Digest of a prompt's embedding (authoring side).
SemanticDigest DigestOfPrompt(std::string_view prompt);

/// Digest of an image's recovered embedding (verification side).
SemanticDigest DigestOfImage(const genai::Image& image);

/// Hamming distance between signatures (0..64).
int DigestDistance(SemanticDigest a, SemanticDigest b);

/// Acceptance budget for direct image-vs-digest checks (high-fidelity
/// generators): random embeddings differ in ~32±4 of 64 bits.
inline constexpr int kDefaultDigestBudget = 24;
/// Budget for the faithfulness stage of full content verification —
/// wider, because legitimate medium-fidelity models keep fewer signs.
inline constexpr int kFaithfulnessBudget = 28;

struct VerificationResult {
  bool verified = false;
  int distance = 0;
  int budget = kDefaultDigestBudget;
};

/// Verify a generated image against the prompt's expected digest.
VerificationResult VerifyGeneratedImage(const genai::Image& image,
                                        SemanticDigest expected,
                                        int budget = kDefaultDigestBudget);

/// Full two-stage verification of one generated item.
struct ContentVerification {
  bool prompt_integrity = false;      ///< digest matches the received prompt
  bool semantically_faithful = false; ///< pixels within the Hamming budget
  int distance = 0;                   ///< image-vs-digest Hamming distance

  bool verified() const { return prompt_integrity && semantically_faithful; }
};

/// `received_prompt` is the prompt the client actually generated from
/// (stage 2 is measured against it); `authored_prompt` is the prompt the
/// digest claims to describe — usually the same string, but bounded
/// client-side personalization may extend it (stage 1 then checks the
/// authored prefix).
ContentVerification VerifyGeneratedContent(std::string_view authored_prompt,
                                           std::string_view received_prompt,
                                           SemanticDigest expected,
                                           const genai::Image& image,
                                           int budget = kFaithfulnessBudget);

/// The digests of the authored and the received prompt, for a caller
/// that already holds their embeddings (MediaGenerator embeds each prompt
/// once, for the render and both digests).
struct PromptDigests {
  SemanticDigest authored = 0;
  SemanticDigest received = 0;
};

/// The one implementation of the two stages; the overload above is this
/// one with both prompts digested (once, when they are equal).
ContentVerification VerifyGeneratedContent(const PromptDigests& prompts,
                                           SemanticDigest expected,
                                           const genai::Image& image,
                                           int budget = kFaithfulnessBudget);

/// Hex round trip for the metadata field.
std::string DigestToHex(SemanticDigest digest);
/// Returns 0 on malformed input (verification will then fail loudly,
/// since a real digest of 0 is vanishingly unlikely to match).
SemanticDigest DigestFromHex(std::string_view hex);

}  // namespace sww::core
