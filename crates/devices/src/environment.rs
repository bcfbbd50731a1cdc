//! The modelled environment: location modes, environment events and system
//! time.
//!
//! The paper models "events generated by the environment (e.g., sunrise and
//! sunset) as sensor generated inputs and location mode changes (e.g., Home,
//! Away, and Night) as actuations" and "system time as a monotonically
//! increasing variable" (§8).

use std::fmt;

/// The standard SmartThings location modes plus a hook for custom modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocationMode {
    /// Someone is at home and awake.
    #[default]
    Home,
    /// Nobody is at home.
    Away,
    /// Residents are asleep.
    Night,
}

impl LocationMode {
    /// All built-in modes.
    pub const ALL: [LocationMode; 3] =
        [LocationMode::Home, LocationMode::Away, LocationMode::Night];

    /// Parses a mode name (case-insensitive, also accepting common synonyms
    /// such as "Sleep" for Night and "Goodbye!" for Away used by market apps).
    ///
    /// Compares in place, without building a lowercased copy: handlers set
    /// the mode on explored transitions.
    pub fn parse(name: &str) -> Option<LocationMode> {
        const SYNONYMS: [(&str, LocationMode); 12] = [
            ("home", LocationMode::Home),
            ("i'm back!", LocationMode::Home),
            ("im back", LocationMode::Home),
            ("good morning!", LocationMode::Home),
            ("away", LocationMode::Away),
            ("goodbye!", LocationMode::Away),
            ("goodbye", LocationMode::Away),
            ("night", LocationMode::Night),
            ("sleep", LocationMode::Night),
            ("sleeping", LocationMode::Night),
            ("good night!", LocationMode::Night),
            ("good night", LocationMode::Night),
        ];
        let name = name.trim();
        SYNONYMS.iter().find(|(synonym, _)| synonym.eq_ignore_ascii_case(name)).map(|(_, m)| *m)
    }

    /// The canonical mode name.
    pub fn name(&self) -> &'static str {
        match self {
            LocationMode::Home => "Home",
            LocationMode::Away => "Away",
            LocationMode::Night => "Night",
        }
    }

    /// Stable index used when encoding system states.
    pub fn index(&self) -> u8 {
        match self {
            LocationMode::Home => 0,
            LocationMode::Away => 1,
            LocationMode::Night => 2,
        }
    }
}

impl fmt::Display for LocationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Environment-generated events that are not tied to an installed device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvironmentEvent {
    /// The sun rose.
    Sunrise,
    /// The sun set.
    Sunset,
}

impl EnvironmentEvent {
    /// All environment events.
    pub const ALL: [EnvironmentEvent; 2] = [EnvironmentEvent::Sunrise, EnvironmentEvent::Sunset];

    /// The event name as seen by `subscribe(location, "...", handler)`.
    pub fn name(&self) -> &'static str {
        match self {
            EnvironmentEvent::Sunrise => "sunrise",
            EnvironmentEvent::Sunset => "sunset",
        }
    }
}

impl fmt::Display for EnvironmentEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Modelled system time: a monotonically increasing counter of seconds.
///
/// Scheduled callbacks (`runIn`, `schedule`) are triggered when the modelled
/// time passes their deadline; the checker advances time by a fixed quantum
/// per external event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct SystemTime(pub u64);

impl SystemTime {
    /// The amount of modelled time that passes between two external events.
    pub const QUANTUM_SECONDS: u64 = 600;

    /// Time zero.
    pub fn zero() -> Self {
        SystemTime(0)
    }

    /// Advances the clock by one quantum and returns the new time.
    pub fn tick(&mut self) -> SystemTime {
        self.0 += Self::QUANTUM_SECONDS;
        *self
    }

    /// Advances by an explicit number of seconds.
    pub fn advance(&mut self, seconds: u64) -> SystemTime {
        self.0 += seconds;
        *self
    }

    /// Seconds since time zero.
    pub fn seconds(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for SystemTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_accepts_synonyms() {
        assert_eq!(LocationMode::parse("Away"), Some(LocationMode::Away));
        assert_eq!(LocationMode::parse("goodbye!"), Some(LocationMode::Away));
        assert_eq!(LocationMode::parse("Good Night!"), Some(LocationMode::Night));
        assert_eq!(LocationMode::parse("HOME"), Some(LocationMode::Home));
        assert_eq!(LocationMode::parse("Vacation"), None);
    }

    #[test]
    fn mode_roundtrip_and_index() {
        for mode in LocationMode::ALL {
            assert_eq!(LocationMode::parse(mode.name()), Some(mode));
        }
        let mut indices: Vec<u8> = LocationMode::ALL.iter().map(|m| m.index()).collect();
        indices.dedup();
        assert_eq!(indices.len(), 3);
    }

    #[test]
    fn environment_events_named() {
        assert_eq!(EnvironmentEvent::Sunrise.name(), "sunrise");
        assert_eq!(EnvironmentEvent::ALL.len(), 2);
    }

    #[test]
    fn time_is_monotonic() {
        let mut t = SystemTime::zero();
        let t1 = t.tick();
        let t2 = t.tick();
        assert!(t2 > t1);
        assert_eq!(t2.seconds(), 2 * SystemTime::QUANTUM_SECONDS);
        t.advance(30);
        assert_eq!(t.seconds(), 2 * SystemTime::QUANTUM_SECONDS + 30);
        assert_eq!(SystemTime::zero().to_string(), "t+0s");
    }
}
