#include "src/image/image_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace now {
namespace {

constexpr int kTgaHeaderSize = 18;

void put_u16le(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v & 0xff);
  p[1] = static_cast<unsigned char>((v >> 8) & 0xff);
}

std::uint16_t get_u16le(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool read_file(const std::string& path, std::string* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *bytes = ss.str();
  return true;
}

}  // namespace

std::string encode_tga(const Framebuffer& fb) {
  // Sized once, then filled in place.
  std::string out(
      kTgaHeaderSize + static_cast<std::size_t>(fb.pixel_count()) * 3, '\0');
  auto* o = reinterpret_cast<unsigned char*>(out.data());
  // Bytes 0-1 (id length, color map) and 3-11 (color map spec, x/y origin)
  // stay zero.
  o[2] = 2;  // uncompressed true-color
  put_u16le(o + 12, static_cast<std::uint16_t>(fb.width()));
  put_u16le(o + 14, static_cast<std::uint16_t>(fb.height()));
  o[16] = 24;    // bits per pixel
  o[17] = 0x20;  // descriptor: top-left origin
  unsigned char* px = o + kTgaHeaderSize;
  for (const Rgb8& p : fb.pixels()) {
    // TGA stores BGR.
    px[0] = p.b;
    px[1] = p.g;
    px[2] = p.r;
    px += 3;
  }
  return out;
}

bool decode_tga(Framebuffer* fb, const std::string& bytes) {
  if (bytes.size() < kTgaHeaderSize) return false;
  const auto* h = reinterpret_cast<const unsigned char*>(bytes.data());
  const int id_length = h[0];
  if (h[1] != 0 || h[2] != 2) return false;  // only uncompressed true-color
  const int width = get_u16le(h + 12);
  const int height = get_u16le(h + 14);
  const int bpp = h[16];
  const bool top_left = (h[17] & 0x20) != 0;
  if (bpp != 24) return false;
  const std::size_t need = kTgaHeaderSize + id_length +
                           static_cast<std::size_t>(width) * height * 3;
  if (bytes.size() < need) return false;
  const unsigned char* px = h + kTgaHeaderSize + id_length;
  *fb = Framebuffer(width, height);
  for (int row = 0; row < height; ++row) {
    const int y = top_left ? row : (height - 1 - row);
    for (int x = 0; x < width; ++x) {
      fb->set(x, y, Rgb8{px[2], px[1], px[0]});
      px += 3;
    }
  }
  return true;
}

bool write_tga(const Framebuffer& fb, const std::string& path) {
  return write_file(path, encode_tga(fb));
}

bool write_tga_atomic(const Framebuffer& fb, const std::string& path) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::string bytes = encode_tga(fb);
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  bool ok = true;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = false;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool read_tga(Framebuffer* fb, const std::string& path) {
  std::string bytes;
  return read_file(path, &bytes) && decode_tga(fb, bytes);
}

bool write_ppm(const Framebuffer& fb, const std::string& path) {
  std::string out;
  char header[64];
  std::snprintf(header, sizeof(header), "P6\n%d %d\n255\n", fb.width(),
                fb.height());
  out = header;
  out.reserve(out.size() + static_cast<std::size_t>(fb.pixel_count()) * 3);
  for (int y = 0; y < fb.height(); ++y) {
    for (int x = 0; x < fb.width(); ++x) {
      const Rgb8 p = fb.at(x, y);
      out.push_back(static_cast<char>(p.r));
      out.push_back(static_cast<char>(p.g));
      out.push_back(static_cast<char>(p.b));
    }
  }
  return write_file(path, out);
}

bool read_ppm(Framebuffer* fb, const std::string& path) {
  std::string bytes;
  if (!read_file(path, &bytes)) return false;
  std::istringstream in(bytes);
  std::string magic;
  int width = 0;
  int height = 0;
  int maxval = 0;
  in >> magic >> width >> height >> maxval;
  if (magic != "P6" || maxval != 255 || width <= 0 || height <= 0) return false;
  in.get();  // single whitespace after maxval
  const std::size_t offset = static_cast<std::size_t>(in.tellg());
  const std::size_t need = static_cast<std::size_t>(width) * height * 3;
  if (bytes.size() < offset + need) return false;
  const auto* px = reinterpret_cast<const unsigned char*>(bytes.data()) + offset;
  *fb = Framebuffer(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      fb->set(x, y, Rgb8{px[0], px[1], px[2]});
      px += 3;
    }
  }
  return true;
}

}  // namespace now
