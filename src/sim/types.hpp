#pragma once
// Shared simulator types and unit helpers.

#include <cstdint>
#include <string>

namespace erpd::sim {

using AgentId = std::int32_t;
inline constexpr AgentId kInvalidAgent = -1;

enum class AgentKind : std::uint8_t { kCar, kTruck, kPedestrian };

inline const char* to_string(AgentKind k) {
  switch (k) {
    case AgentKind::kCar: return "car";
    case AgentKind::kTruck: return "truck";
    case AgentKind::kPedestrian: return "pedestrian";
  }
  return "?";
}

/// Compass arm of the intersection, used to name approaches.
enum class Arm : std::uint8_t { kNorth = 0, kEast = 1, kSouth = 2, kWest = 3 };
inline constexpr int kArmCount = 4;

inline const char* to_string(Arm a) {
  switch (a) {
    case Arm::kNorth: return "N";
    case Arm::kEast: return "E";
    case Arm::kSouth: return "S";
    case Arm::kWest: return "W";
  }
  return "?";
}

enum class Maneuver : std::uint8_t { kStraight, kLeft, kRight };

inline const char* to_string(Maneuver m) {
  switch (m) {
    case Maneuver::kStraight: return "straight";
    case Maneuver::kLeft: return "left";
    case Maneuver::kRight: return "right";
  }
  return "?";
}

/// LiDAR frame period (s): the world tick and the span of a link budget.
inline constexpr double kFrameInterval = 0.1;
/// Range (m) of the LiDAR and of the driver's line of sight.
inline constexpr double kSensorRange = 50.0;
/// LiDAR roof mount height above the road (m).
inline constexpr double kSensorHeight = 1.9;
static_assert(kFrameInterval > 0 && kSensorRange > 0 && kSensorHeight > 0);

constexpr double kmh_to_ms(double kmh) { return kmh / 3.6; }
constexpr double mph_to_ms(double mph) { return mph * 0.44704; }
constexpr double ms_to_mph(double ms) { return ms / 0.44704; }

/// Default footprints (meters): length x width x height.
struct BodyDims {
  double length{4.5};
  double width{1.9};
  double height{1.6};
};

inline BodyDims default_dims(AgentKind k) {
  switch (k) {
    case AgentKind::kCar: return {4.5, 1.9, 1.6};
    case AgentKind::kTruck: return {8.5, 2.5, 3.4};
    case AgentKind::kPedestrian: return {0.5, 0.5, 1.75};
  }
  return {};
}

}  // namespace erpd::sim
