//! Observation classes: the sensor readings no handler or property can tell
//! apart.
//!
//! A numeric sensor attribute has several domain values (illuminance has
//! six), and the sequential model would explore each of them as its own
//! successor.  Many of those successors are interchangeable.  Take an
//! illuminance sensor that no handler subscribes to and that one handler
//! reads only as `currentIlluminance < 30`: the values 0 and 10 answer that
//! test alike, and so do 30, 100, 500 and 1000.
//!
//! For every environment-driven sensor attribute, installation checks two
//! things:
//!
//! * *no subscription receives its events* from that device, by the
//!   dispatcher's own rule ([`crate::model::SequentialModel::subscribers`]),
//!   for every domain value.  An event on it then runs no handler;
//! * *every handler read of it is a mask test* ([`AppCode::for_each_read`]):
//!   a comparison with a constant or a non-device setting, resolved to a
//!   domain-index mask.
//!
//! When both hold, the attribute's domain is partitioned by membership in
//! every handler mask and every property mask
//! ([`CompiledPropertySet::slot_masks`]).  Two values in one class give the
//! same answer to every reader.  The class holding the attribute's default
//! value is represented by the default, and every other class by its lowest
//! index.  Otherwise every value stays its own class.
//!
//! The sequential model offers one event per other class, at that class's
//! representative, plus one step to another member of the current class, and
//! stores the representative whatever member an event names.  So states hold
//! only representatives and the state encoding is unchanged.  The step
//! within the class keeps every step a full model has: leads-to countdowns,
//! clock readers and step-only properties still see it.  ARCHITECTURE.md
//! ("Observation classes") gives the argument that this keeps every violated
//! set and each property's first-violation depth.
//!
//! [`AppCode::for_each_read`]: crate::resolve::AppCode::for_each_read

use crate::system::InstalledSystem;
use iotsan_devices::DeviceId;
use iotsan_ir::Value;
use iotsan_properties::CompiledPropertySet;

/// What the sequential model may merge for one device attribute.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrClasses {
    /// True when no subscription receives this attribute's events from this
    /// device: an event on it runs no handler, so no command can be lost.
    pub unheard: bool,
    /// `rep[i]`: the representative of domain index `i`'s class.  Empty
    /// when every value is its own class.
    pub rep: Vec<u8>,
}

/// Every value its own class, heard: what an attribute the model does not
/// reduce reads as.
static FULL: AttrClasses = AttrClasses { unheard: false, rep: Vec::new() };

/// The observation classes of every device attribute of one installation.
/// The default value reduces nothing: the full alphabet.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObservationClasses {
    /// `attrs[device][position]`.
    attrs: Vec<Vec<AttrClasses>>,
}

impl ObservationClasses {
    /// Computes the classes of `system`'s sensor attributes against its
    /// handlers and the `compiled` properties.  `heard(device, position,
    /// value)` tells whether some subscription receives that event.
    pub fn new(
        system: &InstalledSystem,
        compiled: &CompiledPropertySet,
        heard: impl Fn(DeviceId, usize, &'static Value) -> bool,
    ) -> Self {
        // Per attribute, the masks its readers test; `None` once some
        // handler reads the value itself.
        let mut masks: Vec<Vec<Option<Vec<u64>>>> = system
            .device_specs()
            .iter()
            .map(|spec| vec![Some(Vec::new()); spec.attributes.len()])
            .collect();
        for app in 0..system.apps.len() {
            system.code(app).for_each_read(&mut |device, position, mask| {
                let slot = &mut masks[device.0 as usize][position];
                match (slot.as_mut(), mask) {
                    (Some(list), Some(mask)) => list.push(mask),
                    _ => *slot = None,
                }
            });
        }
        for (device, position, mask) in compiled.slot_masks() {
            if let Some(list) = &mut masks[device][position] {
                list.push(mask);
            }
        }
        let attrs = system
            .device_specs()
            .iter()
            .zip(masks)
            .enumerate()
            .map(|(index, (&spec, masks))| {
                let device = DeviceId(index as u32);
                spec.attributes
                    .iter()
                    .zip(masks)
                    .enumerate()
                    .map(|(position, (attr, masks))| {
                        let unheard = spec.is_sensor()
                            && attr.environment_driven
                            && !attr.values().iter().any(|v| heard(device, position, v));
                        let rep = match masks {
                            Some(masks) if unheard => {
                                representatives(attr.domain.len(), attr.default_index, &masks)
                            }
                            _ => Vec::new(),
                        };
                        AttrClasses { unheard, rep }
                    })
                    .collect()
            })
            .collect();
        ObservationClasses { attrs }
    }

    /// The classes of `device`'s attribute at `position`.
    #[inline]
    pub fn of(&self, device: DeviceId, position: usize) -> &AttrClasses {
        self.attrs.get(device.0 as usize).and_then(|attrs| attrs.get(position)).unwrap_or(&FULL)
    }

    /// The domain index an event naming `value_index` stores: its class's
    /// representative.
    #[inline]
    pub fn stored(&self, device: DeviceId, position: usize, value_index: usize) -> usize {
        self.of(device, position).rep.get(value_index).map_or(value_index, |&rep| rep as usize)
    }
}

/// The representative of each of `len` domain indices' class, or an empty
/// list when every index is its own class.  Two indices share a class when
/// every mask gives them the same bit; the class holding `default` is
/// represented by it, every other class by its lowest index.
fn representatives(len: usize, default: usize, masks: &[u64]) -> Vec<u8> {
    let same = |i: usize, j: usize| masks.iter().all(|m| (m >> i & 1) == (m >> j & 1));
    let rep: Vec<u8> = (0..len)
        .map(
            |i| if same(i, default) { default } else { (0..=i).find(|&j| same(i, j)).unwrap_or(i) },
        )
        .map(|r| r as u8)
        .collect();
    if rep.iter().enumerate().all(|(i, &r)| usize::from(r) == i) {
        Vec::new()
    } else {
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::representatives;

    #[test]
    fn classes_split_on_every_mask_and_keep_the_default() {
        // Illuminance {0, 10, 30, 100, 500, 1000}, default 100 (index 3).
        // `< 30` alone: {0, 10} and {30, 100, 500, 1000}.
        assert_eq!(representatives(6, 3, &[0b000011]), vec![0, 0, 3, 3, 3, 3]);
        // A property mask `> 200` splits the default's class.
        assert_eq!(representatives(6, 3, &[0b000011, 0b110000]), vec![0, 0, 3, 3, 4, 4]);
        // No reader at all: one class, represented by the default.
        assert_eq!(representatives(6, 3, &[]), vec![3; 6]);
        // Masks that separate every value reduce nothing.
        assert!(representatives(3, 0, &[0b001, 0b010]).is_empty());
        // Bits past the domain (a `Null` test's ones) split nothing.
        assert_eq!(representatives(2, 1, &[!0]), vec![1, 1]);
    }
}
