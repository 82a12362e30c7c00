#include "core/verification.hpp"

#include <bit>

#include "util/strings.hpp"

namespace sww::core {

SemanticDigest DigestOfEmbedding(const genai::Vec& embedding) {
  SemanticDigest digest = 0;
  for (int i = 0; i < genai::kEmbeddingDim && i < 64; ++i) {
    if (embedding[static_cast<std::size_t>(i)] >= 0.0) {
      digest |= (1ULL << i);
    }
  }
  return digest;
}

SemanticDigest DigestOfPrompt(std::string_view prompt) {
  return DigestOfEmbedding(genai::TextEmbeddingOf(prompt));
}

SemanticDigest DigestOfImage(const genai::Image& image) {
  return DigestOfEmbedding(genai::ImageEmbedding(image));
}

int DigestDistance(SemanticDigest a, SemanticDigest b) {
  return std::popcount(a ^ b);
}

VerificationResult VerifyGeneratedImage(const genai::Image& image,
                                        SemanticDigest expected, int budget) {
  VerificationResult result;
  result.budget = budget;
  result.distance = DigestDistance(DigestOfImage(image), expected);
  result.verified = result.distance <= budget;
  return result;
}

ContentVerification VerifyGeneratedContent(std::string_view authored_prompt,
                                           std::string_view received_prompt,
                                           SemanticDigest expected,
                                           const genai::Image& image,
                                           int budget) {
  const SemanticDigest authored = DigestOfPrompt(authored_prompt);
  const SemanticDigest received = received_prompt == authored_prompt
                                      ? authored
                                      : DigestOfPrompt(received_prompt);
  return VerifyGeneratedContent(PromptDigests{authored, received}, expected,
                                image, budget);
}

ContentVerification VerifyGeneratedContent(const PromptDigests& prompts,
                                           SemanticDigest expected,
                                           const genai::Image& image,
                                           int budget) {
  ContentVerification result;
  // Stage 1 — exact: the digest must be the digest of the authored prompt.
  result.prompt_integrity = prompts.authored == expected;
  // Stage 2 — statistical: the pixels must carry the semantics of the
  // prompt that was actually used for generation (the authored one unless
  // personalization extended it).
  result.distance = DigestDistance(DigestOfImage(image), prompts.received);
  result.semantically_faithful = result.distance <= budget;
  return result;
}

std::string DigestToHex(SemanticDigest digest) {
  return util::Format("%016llx", static_cast<unsigned long long>(digest));
}

SemanticDigest DigestFromHex(std::string_view hex) {
  if (hex.size() != 16) return 0;
  SemanticDigest digest = 0;
  for (char c : hex) {
    digest <<= 4;
    if (c >= '0' && c <= '9') {
      digest |= static_cast<SemanticDigest>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digest |= static_cast<SemanticDigest>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digest |= static_cast<SemanticDigest>(c - 'A' + 10);
    } else {
      return 0;
    }
  }
  return digest;
}

}  // namespace sww::core
