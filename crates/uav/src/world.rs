//! Procedurally generated 2-D obstacle worlds.
//!
//! The paper evaluates navigation in three environments of increasing
//! difficulty — sparse (outdoor), medium (indoor) and dense (indoor)
//! obstacle densities (Fig. 5).  [`ObstacleWorld`] generates a square arena
//! with circular obstacles at a seeded density, a start position near one
//! side and a goal near the other, and provides the collision and occupancy
//! queries the simulator and the perception model need.

use crate::error::UavError;
use crate::Result;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A 2-D point (metres).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance_to(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A circular obstacle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Obstacle {
    /// Centre of the obstacle.
    pub center: Point,
    /// Radius in metres.
    pub radius: f64,
}

/// Obstacle density levels evaluated in the paper (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObstacleDensity {
    /// Sparse, outdoor-like environment.
    Sparse,
    /// Medium, indoor environment (the default evaluation setting).
    Medium,
    /// Dense, cluttered indoor environment.
    Dense,
}

impl ObstacleDensity {
    /// Number of obstacles generated in the default 20 m arena.
    pub fn obstacle_count(self) -> usize {
        match self {
            ObstacleDensity::Sparse => 6,
            ObstacleDensity::Medium => 14,
            ObstacleDensity::Dense => 24,
        }
    }

    /// All density levels in increasing difficulty order.
    pub fn all() -> [ObstacleDensity; 3] {
        [
            ObstacleDensity::Sparse,
            ObstacleDensity::Medium,
            ObstacleDensity::Dense,
        ]
    }

    /// Short lowercase label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            ObstacleDensity::Sparse => "sparse",
            ObstacleDensity::Medium => "medium",
            ObstacleDensity::Dense => "dense",
        }
    }
}

impl std::fmt::Display for ObstacleDensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Environmental disturbance variants layered on top of the obstacle
/// worlds — the scenario-diversity axis that extends the evaluation grid
/// beyond the paper's 72 cells.
///
/// Every variant draws all of its randomness from the episode's RNG stream
/// (never from a shared generator), so the batched lockstep engine stays
/// bitwise lane-count invariant on disturbed environments too.  `Calm`
/// consumes *no* extra randomness, which keeps the pre-variant golden
/// snapshots valid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum WorldVariant {
    /// The baseline environment of the paper: no disturbance.
    #[default]
    Calm,
    /// Stochastic wind gusts: each step, with probability `gust_prob`, an
    /// extra displacement of up to `gust_step_m` metres per axis is added
    /// to the commanded motion.
    WindGust {
        /// Maximum extra displacement per axis per gust (metres).
        gust_step_m: f64,
        /// Per-step probability of a gust.
        gust_prob: f64,
    },
    /// Sensor dropout: each occupancy cell of the observation independently
    /// reads as free with probability `drop_prob` (the depth sensor missed
    /// it), so the policy must act under degraded perception.
    SensorDropout {
        /// Per-cell probability that an occupancy reading is lost.
        drop_prob: f64,
    },
}

impl WorldVariant {
    /// The default wind-gust variant used by the extended scenario grid.
    pub fn wind_gust_default() -> Self {
        WorldVariant::WindGust {
            gust_step_m: 0.35,
            gust_prob: 0.25,
        }
    }

    /// The default sensor-dropout variant used by the extended scenario
    /// grid.
    pub fn sensor_dropout_default() -> Self {
        WorldVariant::SensorDropout { drop_prob: 0.15 }
    }

    /// All variants at their default parameters, baseline first.
    pub fn all_default() -> [WorldVariant; 3] {
        [
            WorldVariant::Calm,
            WorldVariant::wind_gust_default(),
            WorldVariant::sensor_dropout_default(),
        ]
    }

    /// Short label used in scenario identifiers and tables.
    pub fn label(&self) -> &'static str {
        match self {
            WorldVariant::Calm => "calm",
            WorldVariant::WindGust { .. } => "wind-gust",
            WorldVariant::SensorDropout { .. } => "sensor-dropout",
        }
    }

    /// Validates the variant's parameters.
    ///
    /// # Errors
    ///
    /// Returns [`UavError::InvalidConfig`] for non-finite or out-of-range
    /// gust/dropout parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            WorldVariant::Calm => Ok(()),
            WorldVariant::WindGust {
                gust_step_m,
                gust_prob,
            } => {
                if gust_step_m <= 0.0 || !gust_step_m.is_finite() {
                    return Err(UavError::InvalidConfig(format!(
                        "gust step must be strictly positive, got {gust_step_m}"
                    )));
                }
                if !(0.0..=1.0).contains(&gust_prob) || !gust_prob.is_finite() {
                    return Err(UavError::InvalidConfig(format!(
                        "gust probability must lie in [0, 1], got {gust_prob}"
                    )));
                }
                Ok(())
            }
            WorldVariant::SensorDropout { drop_prob } => {
                if !(0.0..=1.0).contains(&drop_prob) || !drop_prob.is_finite() {
                    return Err(UavError::InvalidConfig(format!(
                        "dropout probability must lie in [0, 1], got {drop_prob}"
                    )));
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for WorldVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A square arena with circular obstacles, a start and a goal.
///
/// # Examples
///
/// ```
/// use berry_uav::world::{ObstacleDensity, ObstacleWorld};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), berry_uav::UavError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let world = ObstacleWorld::generate(20.0, ObstacleDensity::Medium, &mut rng)?;
/// assert!(!world.is_colliding(&world.start(), 0.15));
/// assert!(!world.is_colliding(&world.goal(), 0.15));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObstacleWorld {
    arena_size_m: f64,
    obstacles: Vec<Obstacle>,
    /// `obstacles` again, one array per field, for [`Self::cell_occupied`].
    columns: ObstacleColumns,
    start: Point,
    goal: Point,
    density: ObstacleDensity,
}

/// The obstacles' centre coordinates and radii as three arrays, so the
/// occupancy test can run over every obstacle in vector lanes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct ObstacleColumns {
    x: Vec<f64>,
    y: Vec<f64>,
    radius: Vec<f64>,
}

impl ObstacleColumns {
    fn new(obstacles: &[Obstacle]) -> Self {
        Self {
            x: obstacles.iter().map(|o| o.center.x).collect(),
            y: obstacles.iter().map(|o| o.center.y).collect(),
            radius: obstacles.iter().map(|o| o.radius).collect(),
        }
    }
}

impl ObstacleWorld {
    /// Generates a world of the given arena size and density.
    ///
    /// The start sits near the left edge and the goal near the right edge
    /// (with some lateral randomization), separated by roughly 70 % of the
    /// arena size; obstacles never overlap the start or goal regions.
    ///
    /// # Errors
    ///
    /// Returns [`UavError::InvalidConfig`] if the arena is smaller than 8 m
    /// (too small to hold the start/goal margins), or
    /// [`UavError::WorldGeneration`] if obstacle placement fails repeatedly.
    pub fn generate<R: Rng + ?Sized>(
        arena_size_m: f64,
        density: ObstacleDensity,
        rng: &mut R,
    ) -> Result<Self> {
        if !(8.0..=200.0).contains(&arena_size_m) {
            return Err(UavError::InvalidConfig(format!(
                "arena size must lie in [8, 200] m, got {arena_size_m}"
            )));
        }
        let margin = 2.5;
        let start = Point::new(
            margin,
            rng.gen_range(0.35 * arena_size_m..0.65 * arena_size_m),
        );
        let goal = Point::new(
            arena_size_m - margin - 1.0,
            rng.gen_range(0.35 * arena_size_m..0.65 * arena_size_m),
        );

        let count =
            (density.obstacle_count() as f64 * (arena_size_m / 20.0).powi(2)).round() as usize;
        let mut obstacles = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while obstacles.len() < count {
            attempts += 1;
            if attempts > count * 200 {
                return Err(UavError::WorldGeneration(format!(
                    "could not place {count} obstacles in a {arena_size_m} m arena"
                )));
            }
            let radius = rng.gen_range(0.4..0.9);
            let center = Point::new(
                rng.gen_range(radius..arena_size_m - radius),
                rng.gen_range(radius..arena_size_m - radius),
            );
            // Keep a corridor of clearance around start and goal.
            if center.distance_to(&start) < radius + 2.0 || center.distance_to(&goal) < radius + 2.0
            {
                continue;
            }
            obstacles.push(Obstacle { center, radius });
        }
        Ok(Self {
            arena_size_m,
            columns: ObstacleColumns::new(&obstacles),
            obstacles,
            start,
            goal,
            density,
        })
    }

    /// Builds a world from an explicit obstacle list (used by tests and by
    /// experiments that need a reproducible hand-crafted course).
    ///
    /// # Errors
    ///
    /// Returns [`UavError::InvalidConfig`] if the arena size is out of range
    /// or the start/goal lie outside the arena.
    pub fn with_obstacles(
        arena_size_m: f64,
        obstacles: Vec<Obstacle>,
        start: Point,
        goal: Point,
        density: ObstacleDensity,
    ) -> Result<Self> {
        if !(8.0..=200.0).contains(&arena_size_m) {
            return Err(UavError::InvalidConfig(format!(
                "arena size must lie in [8, 200] m, got {arena_size_m}"
            )));
        }
        for p in [&start, &goal] {
            if p.x < 0.0 || p.y < 0.0 || p.x > arena_size_m || p.y > arena_size_m {
                return Err(UavError::InvalidConfig(
                    "start and goal must lie inside the arena".into(),
                ));
            }
        }
        Ok(Self {
            arena_size_m,
            columns: ObstacleColumns::new(&obstacles),
            obstacles,
            start,
            goal,
            density,
        })
    }

    /// The arena's side length in metres.
    pub fn arena_size_m(&self) -> f64 {
        self.arena_size_m
    }

    /// The generated obstacles.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// The start position.
    pub fn start(&self) -> Point {
        self.start
    }

    /// The goal position.
    pub fn goal(&self) -> Point {
        self.goal
    }

    /// The density level this world was generated at.
    pub fn density(&self) -> ObstacleDensity {
        self.density
    }

    /// Straight-line distance from start to goal.
    pub fn start_goal_distance(&self) -> f64 {
        self.start.distance_to(&self.goal)
    }

    /// Whether a UAV of radius `uav_radius` centred at `point` collides with
    /// an obstacle or the arena boundary.
    pub fn is_colliding(&self, point: &Point, uav_radius: f64) -> bool {
        if point.x < uav_radius
            || point.y < uav_radius
            || point.x > self.arena_size_m - uav_radius
            || point.y > self.arena_size_m - uav_radius
        {
            return true;
        }
        self.obstacles
            .iter()
            .any(|o| o.center.distance_to(point) < o.radius + uav_radius)
    }

    /// Whether the straight segment from `from` to `to` collides, checked by
    /// sampling every `resolution` metres.
    pub fn segment_collides(
        &self,
        from: &Point,
        to: &Point,
        uav_radius: f64,
        resolution: f64,
    ) -> bool {
        let dist = from.distance_to(to);
        let steps = (dist / resolution.max(1e-3)).ceil().max(1.0) as usize;
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            let p = Point::new(
                from.x + (to.x - from.x) * t,
                from.y + (to.y - from.y) * t,
            );
            if self.is_colliding(&p, uav_radius) {
                return true;
            }
        }
        false
    }

    /// Whether any obstacle (or the boundary) overlaps the axis-aligned cell
    /// of side `cell_size` centred at `center` — the occupancy query the
    /// perception model uses.
    pub fn cell_occupied(&self, center: &Point, cell_size: f64) -> bool {
        let half = cell_size / 2.0;
        if center.x - half < 0.0
            || center.y - half < 0.0
            || center.x + half > self.arena_size_m
            || center.y + half > self.arena_size_m
        {
            return true;
        }
        // Every obstacle is tested, with no early exit, so the loop runs
        // in vector lanes; an `or` over the tests does not depend on their
        // order, so this is `any` over `obstacles`.
        let ObstacleColumns { x, y, radius } = &self.columns;
        let mut occupied = false;
        for ((&ox, &oy), &r) in x.iter().zip(y).zip(radius) {
            // Distance from the obstacle centre to the closest point of the cell.
            let dx = (ox - center.x).abs() - half;
            let dy = (oy - center.y).abs() - half;
            let dx = dx.max(0.0);
            let dy = dy.max(0.0);
            occupied |= (dx * dx + dy * dy).sqrt() < r;
        }
        occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// `w` with its obstacles replaced.
    fn replace_obstacles(w: &ObstacleWorld, obstacles: Vec<Obstacle>) -> ObstacleWorld {
        ObstacleWorld::with_obstacles(w.arena_size_m(), obstacles, w.start(), w.goal(), w.density()).unwrap()
    }

    /// [`ObstacleWorld::cell_occupied`] as `any` over the obstacles,
    /// stopping at the first one that overlaps the cell.
    fn cell_occupied_short_circuit(w: &ObstacleWorld, center: &Point, cell_size: f64) -> bool {
        let half = cell_size / 2.0;
        if center.x - half < 0.0
            || center.y - half < 0.0
            || center.x + half > w.arena_size_m()
            || center.y + half > w.arena_size_m()
        {
            return true;
        }
        w.obstacles().iter().any(|o| {
            let dx = (o.center.x - center.x).abs() - half;
            let dy = (o.center.y - center.y).abs() - half;
            let dx = dx.max(0.0);
            let dy = dy.max(0.0);
            (dx * dx + dy * dy).sqrt() < o.radius
        })
    }

    #[test]
    fn generation_respects_density_ordering() {
        let mut r = rng(1);
        let sparse = ObstacleWorld::generate(20.0, ObstacleDensity::Sparse, &mut r).unwrap();
        let medium = ObstacleWorld::generate(20.0, ObstacleDensity::Medium, &mut r).unwrap();
        let dense = ObstacleWorld::generate(20.0, ObstacleDensity::Dense, &mut r).unwrap();
        assert!(sparse.obstacles().len() < medium.obstacles().len());
        assert!(medium.obstacles().len() < dense.obstacles().len());
    }

    #[test]
    fn start_and_goal_are_collision_free_and_far_apart() {
        for seed in 0..20 {
            let mut r = rng(seed);
            let w = ObstacleWorld::generate(20.0, ObstacleDensity::Dense, &mut r).unwrap();
            assert!(!w.is_colliding(&w.start(), 0.2));
            assert!(!w.is_colliding(&w.goal(), 0.2));
            assert!(w.start_goal_distance() > 0.5 * w.arena_size_m());
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let w1 = ObstacleWorld::generate(20.0, ObstacleDensity::Medium, &mut rng(7)).unwrap();
        let w2 = ObstacleWorld::generate(20.0, ObstacleDensity::Medium, &mut rng(7)).unwrap();
        assert_eq!(w1, w2);
        let w3 = ObstacleWorld::generate(20.0, ObstacleDensity::Medium, &mut rng(8)).unwrap();
        assert_ne!(w1, w3);
    }

    #[test]
    fn arena_bounds_count_as_collisions() {
        let w = ObstacleWorld::generate(20.0, ObstacleDensity::Sparse, &mut rng(2)).unwrap();
        assert!(w.is_colliding(&Point::new(-1.0, 5.0), 0.1));
        assert!(w.is_colliding(&Point::new(5.0, 25.0), 0.1));
        assert!(w.is_colliding(&Point::new(0.05, 5.0), 0.1));
    }

    #[test]
    fn segment_collision_detects_obstacle_crossing() {
        let w = ObstacleWorld::generate(20.0, ObstacleDensity::Sparse, &mut rng(3)).unwrap();
        // Plant a known obstacle in the middle and test a segment through it.
        let mut obstacles = w.obstacles().to_vec();
        obstacles.push(Obstacle {
            center: Point::new(10.0, 10.0),
            radius: 1.0,
        });
        let w = replace_obstacles(&w, obstacles);
        assert!(w.segment_collides(
            &Point::new(7.0, 10.0),
            &Point::new(13.0, 10.0),
            0.1,
            0.1
        ));
        assert!(!w.segment_collides(
            &Point::new(7.0, 16.0),
            &Point::new(13.0, 16.0),
            0.1,
            0.1
        ));
    }

    #[test]
    fn cell_occupancy_matches_obstacle_positions() {
        let w = ObstacleWorld::generate(20.0, ObstacleDensity::Sparse, &mut rng(4)).unwrap();
        let obstacle = Obstacle {
            center: Point::new(10.0, 10.0),
            radius: 0.5,
        };
        let w = replace_obstacles(&w, vec![obstacle]);
        assert!(w.cell_occupied(&Point::new(10.0, 10.0), 0.75));
        assert!(w.cell_occupied(&Point::new(10.8, 10.0), 0.75));
        assert!(!w.cell_occupied(&Point::new(13.0, 10.0), 0.75));
        // Cells outside the arena read as occupied.
        assert!(w.cell_occupied(&Point::new(-0.5, 10.0), 0.75));
    }

    #[test]
    fn invalid_arena_sizes_are_rejected() {
        let mut r = rng(5);
        assert!(ObstacleWorld::generate(2.0, ObstacleDensity::Sparse, &mut r).is_err());
        assert!(ObstacleWorld::generate(500.0, ObstacleDensity::Sparse, &mut r).is_err());
    }

    #[test]
    fn world_variant_labels_and_defaults() {
        assert_eq!(WorldVariant::default(), WorldVariant::Calm);
        assert_eq!(WorldVariant::Calm.label(), "calm");
        assert_eq!(WorldVariant::wind_gust_default().label(), "wind-gust");
        assert_eq!(
            WorldVariant::sensor_dropout_default().to_string(),
            "sensor-dropout"
        );
        let labels: std::collections::HashSet<&str> = WorldVariant::all_default()
            .iter()
            .map(|v| v.label())
            .collect();
        assert_eq!(labels.len(), 3);
        for v in WorldVariant::all_default() {
            assert!(v.validate().is_ok());
        }
    }

    #[test]
    fn world_variant_validation_rejects_bad_parameters() {
        assert!(WorldVariant::WindGust {
            gust_step_m: 0.0,
            gust_prob: 0.5
        }
        .validate()
        .is_err());
        assert!(WorldVariant::WindGust {
            gust_step_m: 0.3,
            gust_prob: 1.5
        }
        .validate()
        .is_err());
        assert!(WorldVariant::SensorDropout { drop_prob: -0.1 }
            .validate()
            .is_err());
        assert!(WorldVariant::SensorDropout { drop_prob: 2.0 }
            .validate()
            .is_err());
    }

    #[test]
    fn density_labels_and_counts() {
        assert_eq!(ObstacleDensity::Sparse.label(), "sparse");
        assert_eq!(ObstacleDensity::Medium.to_string(), "medium");
        assert_eq!(ObstacleDensity::all().len(), 3);
        assert!(ObstacleDensity::Dense.obstacle_count() > ObstacleDensity::Sparse.obstacle_count());
    }

    proptest! {
        #[test]
        fn prop_obstacles_lie_inside_the_arena(seed in 0u64..100) {
            let mut r = rng(seed);
            let w = ObstacleWorld::generate(20.0, ObstacleDensity::Dense, &mut r).unwrap();
            for o in w.obstacles() {
                prop_assert!(o.center.x >= 0.0 && o.center.x <= 20.0);
                prop_assert!(o.center.y >= 0.0 && o.center.y <= 20.0);
                prop_assert!(o.radius > 0.0 && o.radius < 1.0);
            }
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn prop_cell_occupied_matches_short_circuit_any(
            seed in 0u64..10_000,
            density in 0usize..3,
            x in -1.0f64..21.0,
            y in -1.0f64..21.0,
            cell in 0.25f64..1.5,
            radius in 0.3f64..1.0,
            snap in 0usize..4,
        ) {
            let density = ObstacleDensity::all()[density];
            let generated = ObstacleWorld::generate(20.0, density, &mut rng(seed)).unwrap();
            let half = cell / 2.0;
            // Free cells, and cells with an edge on the arena boundary.
            let center = match snap {
                0 => Point::new(x, y),
                1 => Point::new(half, y),
                2 => Point::new(x, 20.0 - half),
                _ => Point::new(20.0 - half, half),
            };
            // Obstacles tangent to the cell: beside an edge, and off a
            // corner along the diagonal.
            let diagonal = radius / 2f64.sqrt();
            let tangent = vec![
                Obstacle { center: Point::new(center.x + half + radius, center.y), radius },
                Obstacle {
                    center: Point::new(center.x - half - diagonal, center.y - half - diagonal),
                    radius,
                },
            ];
            let mut all = generated.obstacles().to_vec();
            all.extend_from_slice(&tangent);
            let worlds = [
                generated.clone(),
                replace_obstacles(&generated, tangent),
                replace_obstacles(&generated, all),
            ];
            for world in &worlds {
                // The queried cell and its neighbours a cell away.
                for (i, j) in [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 1.0)] {
                    let at = Point::new(center.x + i * cell, center.y + j * cell);
                    prop_assert_eq!(
                        world.cell_occupied(&at, cell),
                        cell_occupied_short_circuit(world, &at, cell),
                        "cell at ({}, {}) of side {}", at.x, at.y, cell
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_point_distance_is_symmetric(x1 in -50.0f64..50.0, y1 in -50.0f64..50.0, x2 in -50.0f64..50.0, y2 in -50.0f64..50.0) {
            let a = Point::new(x1, y1);
            let b = Point::new(x2, y2);
            prop_assert!((a.distance_to(&b) - b.distance_to(&a)).abs() < 1e-9);
        }
    }
}
