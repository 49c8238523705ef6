//! Typed identifiers for simulation entities.
//!
//! Newtypes keep server/tier/request/VM handles from being mixed up at
//! compile time; all are small `Copy` values used as slab/map keys.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw index value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifies a component server (one Apache/Tomcat/MySQL instance).
    ServerId,
    "srv-"
);
id_type!(
    /// Identifies a virtual machine hosting a server.
    VmId,
    "vm-"
);
id_type!(
    /// Identifies an in-flight client request.
    RequestId,
    "req-"
);

/// Generation-checked handle into the in-flight request slab
/// ([`crate::system::System`]'s request table).
///
/// Packs a slab slot index (low 32 bits) and a generation stamp (high 32
/// bits), mirroring `dcm_sim::engine::EventId`: a slot is reused after its
/// request leaves the system with the generation bumped, so stale handles
/// held by cancelled timers dereference to `None` instead of aliasing a new
/// request. Distinct from [`RequestId`], the public monotonic identity a
/// request keeps for its whole life (spans, completions, trace export).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlightId(u64);

impl FlightId {
    /// Builds a handle from a slab slot and generation stamp.
    pub const fn pack(slot: u32, gen: u32) -> Self {
        FlightId(((gen as u64) << 32) | slot as u64)
    }

    /// The slab slot index.
    pub const fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The generation stamp the slot must still carry.
    pub const fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw packed value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from its [`FlightId::raw`] value.
    pub const fn from_raw(raw: u64) -> Self {
        FlightId(raw)
    }
}

impl fmt::Display for FlightId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flt-{}g{}", self.slot(), self.gen())
    }
}

/// Identifies a tier by position in the chain (0 = frontmost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(pub usize);

impl TierId {
    /// The tier's position in the chain.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tier-{}", self.0)
    }
}

/// Monotonic id allocator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// Creates an allocator starting at zero.
    pub fn new() -> Self {
        IdAllocator { next: 0 }
    }

    /// Returns the next raw id.
    pub fn next_raw(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(ServerId::new(3).to_string(), "srv-3");
        assert_eq!(VmId::new(1).to_string(), "vm-1");
        assert_eq!(RequestId::new(9).to_string(), "req-9");
        assert_eq!(TierId(2).to_string(), "tier-2");
    }

    #[test]
    fn ids_roundtrip_raw() {
        let id = ServerId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(u64::from(id), 42);
    }

    #[test]
    fn flight_id_packs_slot_and_generation() {
        let id = FlightId::pack(7, 3);
        assert_eq!(id.slot(), 7);
        assert_eq!(id.gen(), 3);
        assert_eq!(id.to_string(), "flt-7g3");
        assert_ne!(FlightId::pack(7, 3), FlightId::pack(7, 4));
        let max = FlightId::pack(u32::MAX, u32::MAX);
        assert_eq!(max.slot(), u32::MAX);
        assert_eq!(max.gen(), u32::MAX);
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut alloc = IdAllocator::new();
        assert_eq!(alloc.next_raw(), 0);
        assert_eq!(alloc.next_raw(), 1);
        assert_eq!(alloc.next_raw(), 2);
    }

    #[test]
    fn distinct_id_types_do_not_compare() {
        // Compile-time property: ServerId and VmId are different types.
        fn takes_server(_: ServerId) {}
        takes_server(ServerId::new(1));
    }
}
