#include "src/scene/scene_parser.h"

#include <gtest/gtest.h>

#include "src/trace/render.h"

namespace now {
namespace {

constexpr const char* kBasicScene = R"(
# A minimal but complete scene.
scene {
  resolution 64 48
  frames 5
  fps 10
  background 0.1 0.1 0.2
  camera { from 0 2 8  at 0 1 0  up 0 1 0  fov 45 }
  material "red"   { type matte  color 0.9 0.1 0.1 }
  material "floor" { type checker  color 0.6 0.6 0.6  color2 0.2 0.2 0.2  cell 0.8 }
  object "ball" {
    sphere { center 0 1 0  radius 0.5 }
    material "red"
    animate { mode linear  key 0  0 0 0  key 4  2 0 0 }
  }
  object "ground" {
    plane { normal 0 1 0  d 0 }
    material "floor"
  }
  light { type point  position 3 6 3  color 1 1 1  intensity 0.9 }
}
)";

TEST(SceneParser, ParsesBasicScene) {
  const ParseResult result = parse_scene(kBasicScene);
  ASSERT_TRUE(result.ok) << result.error;
  const AnimatedScene& scene = result.scene;
  EXPECT_EQ(scene.width(), 64);
  EXPECT_EQ(scene.height(), 48);
  EXPECT_EQ(scene.frame_count(), 5);
  EXPECT_DOUBLE_EQ(scene.fps(), 10.0);
  EXPECT_EQ(scene.object_count(), 2);
  EXPECT_EQ(scene.light_count(), 1);
  EXPECT_EQ(scene.background(), (Color{0.1, 0.1, 0.2}));
}

TEST(SceneParser, AnimationKeysAreInFrames) {
  const ParseResult result = parse_scene(kBasicScene);
  ASSERT_TRUE(result.ok) << result.error;
  // key 4 -> frame 4 -> time 0.4 s; object moves 2 units over 4 frames.
  EXPECT_EQ(result.scene.object_transform(0, 0).translation, Vec3(0, 0, 0));
  EXPECT_EQ(result.scene.object_transform(0, 4).translation, Vec3(2, 0, 0));
  EXPECT_EQ(result.scene.object_transform(0, 2).translation, Vec3(1, 0, 0));
}

TEST(SceneParser, ParsedSceneRenders) {
  const ParseResult result = parse_scene(kBasicScene);
  ASSERT_TRUE(result.ok) << result.error;
  const Framebuffer fb = render_world(result.scene.world_at(0), 64, 48);
  // The image is not uniformly background.
  int non_bg = 0;
  const Rgb8 bg{to_byte(0.1), to_byte(0.1), to_byte(0.2)};
  for (int y = 0; y < 48; ++y) {
    for (int x = 0; x < 64; ++x) {
      if (!(fb.at(x, y) == bg)) ++non_bg;
    }
  }
  EXPECT_GT(non_bg, 500);
}

TEST(SceneParser, AllShapeTypes) {
  const ParseResult result = parse_scene(R"(
scene {
  material "m" { type matte  color 0.5 0.5 0.5 }
  object "s" { sphere { center 0 0 0 radius 1 } material "m" }
  object "p" { plane { point 0 1 0  normal 0 2 0 } material "m" }
  object "b" { box { min -1 -1 -1  max 1 1 1 } material "m" }
  object "b2" { box { center 0 0 0  half 1 2 1 } material "m" }
  object "c" { cylinder { p0 0 0 0  p1 0 2 0  radius 0.3 } material "m" }
  object "d" { disc { center 0 0 0  normal 0 1 0  radius 1 } material "m" }
  object "t" { triangle { v0 0 0 0  v1 1 0 0  v2 0 1 0 } material "m" }
}
)");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.scene.object_count(), 7);
  EXPECT_EQ(result.scene.object(1).local->type(), ShapeType::kPlane);
  EXPECT_EQ(result.scene.object(6).local->type(), ShapeType::kTriangle);
}

TEST(SceneParser, AllMaterialTypes) {
  const ParseResult result = parse_scene(R"(
scene {
  material "a" { type matte color 1 0 0 }
  material "b" { type chrome }
  material "c" { type glass ior 1.33 }
  material "d" { type mirror color 1 1 1 reflectivity 0.8 }
  material "e" { type checker color 1 1 1 color2 0 0 0 cell 2 }
  material "f" { type brick color 0.5 0.2 0.1 color2 0.7 0.7 0.7 brick_size 0.5 0.2 mortar 0.02 }
  material "g" { type marble color 0 0 0 color2 1 1 1 frequency 2 turbulence 1 }
  material "h" { type matte color 0.5 0.5 0.5 ambient 0.2 diffuse 0.5 specular 0.3 shininess 64 transmittance 0.1 }
  object "o" { sphere { center 0 0 0 radius 1 } material "h" }
}
)");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.scene.material_count(), 8);
  const Material& h = result.scene.material(7);
  EXPECT_DOUBLE_EQ(h.ambient, 0.2);
  EXPECT_DOUBLE_EQ(h.diffuse, 0.5);
  EXPECT_DOUBLE_EQ(h.shininess, 64.0);
  EXPECT_DOUBLE_EQ(h.transmittance, 0.1);
}

TEST(SceneParser, CameraCuts) {
  const ParseResult result = parse_scene(R"(
scene {
  frames 10
  camera { from 0 0 5  at 0 0 0  up 0 1 0  fov 50 }
  camera { cut 6  from 5 0 0  at 0 0 0  up 0 1 0  fov 50 }
  material "m" { type matte color 1 1 1 }
  object "o" { sphere { center 0 0 0 radius 1 } material "m" }
}
)");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.scene.camera_changed(5, 6));
  EXPECT_FALSE(result.scene.camera_changed(0, 5));
  EXPECT_EQ(result.scene.split_shots().size(), 2u);
}

TEST(SceneParser, PendulumAndOrbitAnimators) {
  const ParseResult result = parse_scene(R"(
scene {
  frames 8
  fps 4
  material "m" { type matte color 1 1 1 }
  object "swing" {
    cylinder { p0 0 2 0  p1 0 0 0  radius 0.1 }
    material "m"
    animate { pendulum  pivot 0 2 0  axis 0 0 1  amplitude 45  period 2 }
  }
  object "orbiter" {
    sphere { center 1 0 0  radius 0.2 }
    material "m"
    animate { orbit  center 0 0 0  axis 0 1 0  period 2 }
  }
}
)");
  ASSERT_TRUE(result.ok) << result.error;
  // Pendulum: amplitude at t=0, through zero at quarter period.
  EXPECT_NE(result.scene.object_transform(0, 0), Transform::identity());
  // Orbit: moves every frame.
  EXPECT_TRUE(result.scene.object_changed(1, 0, 1));
}

struct ErrorCase {
  const char* label;
  const char* source;
  const char* expect_substring;
};

// Without this, gtest prints the struct's raw bytes — pointer values that
// ASLR changes on every run — into each discovered test name.
void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.label; }

class SceneParserErrors : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(SceneParserErrors, ReportsLineAndReason) {
  const ParseResult result = parse_scene(GetParam().source);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find(GetParam().expect_substring), std::string::npos)
      << "actual error: " << result.error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SceneParserErrors,
    ::testing::Values(
        ErrorCase{"no_scene", "nope {}", "expected 'scene'"},
        ErrorCase{"unknown_item", "scene { wibble 3 }", "unknown scene item"},
        ErrorCase{"unknown_material",
                  R"(scene { object "o" { sphere { center 0 0 0 radius 1 } material "missing" } })",
                  "unknown material"},
        ErrorCase{"no_shape",
                  R"(scene { material "m" { type matte } object "o" { material "m" } })",
                  "has no shape"},
        ErrorCase{"no_material",
                  R"(scene { object "o" { sphere { center 0 0 0 radius 1 } } })",
                  "has no material"},
        ErrorCase{"bad_material_type",
                  R"(scene { material "m" { type plutonium } })",
                  "unknown material type"},
        ErrorCase{"bad_light_type",
                  R"(scene { light { type lava } })", "unknown light type"},
        ErrorCase{"trailing", "scene { } scene { }", "trailing input"}),
    [](const ::testing::TestParamInfo<ErrorCase>& info) {
      return info.param.label;
    });

TEST(SceneParser, ErrorsIncludeLineNumbers) {
  const ParseResult result = parse_scene("scene {\n\n  wibble 3\n}");
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 3"), std::string::npos) << result.error;
}

TEST(SceneParser, CommentsAndWhitespace) {
  const ParseResult result = parse_scene(R"(
# leading comment
scene {   # trailing comment
  frames 3   # another
  material "m" { type matte color 1 1 1 }
  object "o" { sphere { center 0 0 0 radius 1 } material "m" }
}
)");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.scene.frame_count(), 3);
}

TEST(SceneParser, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/parser_test.scene";
  {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(kBasicScene, f);
    std::fclose(f);
  }
  const ParseResult result = parse_scene_file(path);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.scene.object_count(), 2);
  const ParseResult missing = parse_scene_file("/nonexistent.scene");
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace now
