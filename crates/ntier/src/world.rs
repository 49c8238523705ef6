//! The simulation world: system state, the run's RNG stream and its
//! clients.

use std::any::Any;
use std::fmt;
use std::rc::Rc;

use dcm_sim::engine::Engine;
use dcm_sim::rng::SimRng;

use crate::system::System;

/// Everything the event loop mutates: the n-tier system, the
/// deterministic RNG all stochastic choices draw from, and the clients
/// driving the system.
#[derive(Debug)]
pub struct World {
    /// The n-tier system.
    pub system: System,
    /// The run's random stream.
    pub rng: SimRng,
    /// Client state that allocation-free events address by index.
    pub clients: ClientTable,
}

impl World {
    /// Creates a world around a system with the given RNG seed.
    pub fn new(system: System, seed: u64) -> Self {
        World {
            system,
            rng: SimRng::seed_from(seed),
            clients: ClientTable::default(),
        }
    }
}

/// Client state addressed by index from plain-function events.
///
/// A workload population registers its shared state here once. Its timers
/// (`Engine::schedule_fn_at`) and completion callbacks
/// ([`crate::flow::submit`]) then carry only the index in their `u64`
/// payload and look the state up when they run, so arming them allocates
/// nothing. The world owns every entry, so an entry lives exactly as long
/// as its world.
#[derive(Default)]
pub struct ClientTable {
    entries: Vec<Rc<dyn Any>>,
}

impl ClientTable {
    /// Registers `client` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics past 2^32 registered clients.
    pub fn register<T: Any>(&mut self, client: Rc<T>) -> u32 {
        let index = u32::try_from(self.entries.len()).expect("fewer than 2^32 clients");
        self.entries.push(client);
        index
    }

    /// The client registered at `index`, as the type it was registered
    /// with.
    ///
    /// # Panics
    ///
    /// Panics if no client of type `T` is registered at `index`: the event
    /// addressing it belongs to another world.
    pub fn get<T: Any>(&self, index: u32) -> Rc<T> {
        let entry = self
            .entries
            .get(index as usize)
            .expect("client index registered in this world");
        Rc::clone(entry)
            .downcast()
            .expect("client registered with the type its events expect")
    }
}

impl fmt::Debug for ClientTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientTable")
            .field("clients", &self.entries.len())
            .finish()
    }
}

/// The engine type all DCM simulations run on.
pub type SimEngine = Engine<World>;
