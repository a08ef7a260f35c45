#include "src/image/image_io.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/math/rng.h"

namespace now {
namespace {

Framebuffer random_image(int w, int h, std::uint64_t seed) {
  Framebuffer fb(w, h);
  Rng rng(seed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      fb.set(x, y, Rgb8{static_cast<std::uint8_t>(rng.next_below(256)),
                        static_cast<std::uint8_t>(rng.next_below(256)),
                        static_cast<std::uint8_t>(rng.next_below(256))});
    }
  }
  return fb;
}

TEST(TgaCodec, InMemoryRoundTrip) {
  const Framebuffer fb = random_image(17, 9, 1);
  const std::string bytes = encode_tga(fb);
  Framebuffer out;
  ASSERT_TRUE(decode_tga(&out, bytes));
  EXPECT_EQ(out, fb);
}

TEST(TgaCodec, HeaderIsWellFormed) {
  const Framebuffer fb(320, 240);
  const std::string bytes = encode_tga(fb);
  ASSERT_GE(bytes.size(), 18u);
  EXPECT_EQ(bytes[2], 2);    // uncompressed true-color
  EXPECT_EQ(static_cast<unsigned char>(bytes[16]), 24);  // bpp
  EXPECT_EQ(bytes.size(), 18u + 320u * 240u * 3u);
}

TEST(TgaCodec, EncodeMatchesPerPixelReference) {
  // The reference appends the 18-byte header and then each pixel as b,g,r,
  // top row first.
  const auto reference = [](const Framebuffer& fb) {
    std::string out = {0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0};
    for (const int v : {fb.width(), fb.height()}) {
      out.push_back(static_cast<char>(v & 0xff));
      out.push_back(static_cast<char>((v >> 8) & 0xff));
    }
    out.push_back(24);
    out.push_back(0x20);
    for (int y = 0; y < fb.height(); ++y) {
      for (int x = 0; x < fb.width(); ++x) {
        const Rgb8 p = fb.at(x, y);
        out.push_back(static_cast<char>(p.b));
        out.push_back(static_cast<char>(p.g));
        out.push_back(static_cast<char>(p.r));
      }
    }
    return out;
  };
  for (const auto& [w, h] : {std::pair{0, 0}, std::pair{1, 1},
                             std::pair{17, 9}, std::pair{300, 2},
                             std::pair{640, 480}}) {
    const Framebuffer fb = random_image(w, h, static_cast<std::uint64_t>(w));
    EXPECT_EQ(encode_tga(fb), reference(fb)) << w << "x" << h;
  }
}

TEST(TgaCodec, RejectsTruncatedData) {
  const Framebuffer fb = random_image(8, 8, 2);
  std::string bytes = encode_tga(fb);
  bytes.resize(bytes.size() - 10);
  Framebuffer out;
  EXPECT_FALSE(decode_tga(&out, bytes));
  EXPECT_FALSE(decode_tga(&out, std::string("short")));
}

TEST(TgaCodec, RejectsWrongType) {
  const Framebuffer fb = random_image(4, 4, 3);
  std::string bytes = encode_tga(fb);
  bytes[2] = 10;  // RLE type: unsupported
  Framebuffer out;
  EXPECT_FALSE(decode_tga(&out, bytes));
}

TEST(TgaCodec, DecodesBottomLeftOrigin) {
  const Framebuffer fb = random_image(5, 4, 4);
  std::string bytes = encode_tga(fb);
  // Flip the origin bit and reorder rows accordingly; decode must undo it.
  bytes[17] = 0;  // bottom-left origin
  std::string body = bytes.substr(18);
  std::string flipped;
  const int row_bytes = 5 * 3;
  for (int row = 3; row >= 0; --row) {
    flipped += body.substr(static_cast<std::size_t>(row) * row_bytes, row_bytes);
  }
  bytes = bytes.substr(0, 18) + flipped;
  Framebuffer out;
  ASSERT_TRUE(decode_tga(&out, bytes));
  EXPECT_EQ(out, fb);
}

TEST(TgaFile, DiskRoundTrip) {
  const Framebuffer fb = random_image(31, 13, 5);
  const std::string path = ::testing::TempDir() + "/io_test.tga";
  ASSERT_TRUE(write_tga(fb, path));
  Framebuffer out;
  ASSERT_TRUE(read_tga(&out, path));
  EXPECT_EQ(out, fb);
}

TEST(TgaFile, ReadMissingFileFails) {
  Framebuffer out;
  EXPECT_FALSE(read_tga(&out, "/nonexistent/nope.tga"));
}

TEST(PpmFile, DiskRoundTrip) {
  const Framebuffer fb = random_image(23, 11, 6);
  const std::string path = ::testing::TempDir() + "/io_test.ppm";
  ASSERT_TRUE(write_ppm(fb, path));
  Framebuffer out;
  ASSERT_TRUE(read_ppm(&out, path));
  EXPECT_EQ(out, fb);
}

TEST(PpmFile, RejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "/bad.ppm";
  {
    std::string junk = "P3\n2 2\n255\nnot binary";
    FILE* f = std::fopen(path.c_str(), "wb");
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }
  Framebuffer out;
  EXPECT_FALSE(read_ppm(&out, path));
}

}  // namespace
}  // namespace now
