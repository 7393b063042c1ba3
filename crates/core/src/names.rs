//! The by-name variable lookup every client call makes, resolved once.
//!
//! `DamarisClient::write(name, …)` is the paper's API: the variable is
//! named on every call. Scanning the declared names and then hashing the
//! layout's name cost a 256-byte write more than its checksum and copy
//! together, so [`NodeShared`](crate::node::NodeShared) builds this index
//! from the node's final [`Config`] when the node starts: an
//! open-addressing table (load ≤ ½, linear probing) from a name to what a
//! write needs — the variable's id, its layout's byte size, and whether
//! the layout is dynamic. A lookup hashes the name a word at a time,
//! probes from its bucket, and compares one stored name; it neither
//! allocates nor panics, and it is inside the strict closure of `write`.

use crate::config::Config;

/// What a write needs to know about one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Resolved {
    /// Declaration order, as [`Config::variable_by_name`] numbers it.
    pub id: u32,
    /// Bytes of one instance of the layout; `None` for a dynamic layout,
    /// whose size exists per write.
    pub bytes: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    /// The name's byte range in [`NameIndex::names`].
    name_at: usize,
    name_end: usize,
    var: Resolved,
}

/// Name → [`Resolved`] for every variable of one configuration.
#[derive(Debug)]
pub(crate) struct NameIndex {
    slots: Box<[Option<Slot>]>,
    /// `slots.len() - 1`; the length is a power of two.
    mask: usize,
    /// A hash's bucket is its top bits: `hash >> shift`.
    shift: u32,
    /// Every name, back to back, so the names a lookup compares against
    /// share cache lines instead of each living in its own allocation.
    names: Box<str>,
}

/// A word-at-a-time multiplicative hash; the bucket comes from its top
/// bits, which every input byte reaches. Unkeyed on purpose: the keys are
/// the configuration's own names, and the most a configuration crafted to
/// collide can cost is the probe through every name that this replaced.
fn name_hash(name: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (name.len() as u64).wrapping_mul(K);
    let mut words = name.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(<[u8; 8]>::try_from(word).unwrap_or_default());
        h = (h ^ word).wrapping_mul(K).rotate_left(29);
    }
    let tail = words
        .remainder()
        .iter()
        .rev()
        .fold(0u64, |tail, &b| (tail << 8) | u64::from(b));
    (h ^ tail).wrapping_mul(K)
}

impl NameIndex {
    /// Indexes `config`'s variables. A name declared twice resolves to its
    /// first declaration, and a variable whose layout is missing is left
    /// out (it resolves to nothing), as `Config::from_xml` rejects both.
    pub(crate) fn new(config: &Config) -> NameIndex {
        let buckets = (2 * config.variables.len()).max(4).next_power_of_two();
        let shift = 64 - buckets.trailing_zeros();
        let mask = buckets - 1;
        let mut slots: Vec<Option<Slot>> = vec![None; buckets];
        let mut names = String::new();
        for (id, def) in config.variables.iter().enumerate() {
            let Some(layout) = config.layouts.get(&def.layout) else {
                continue;
            };
            let hash = name_hash(def.name.as_bytes());
            let mut i = (hash >> shift) as usize;
            while let Some(taken) = &slots[i] {
                if names.get(taken.name_at..taken.name_end) == Some(def.name.as_str()) {
                    break;
                }
                i = (i + 1) & mask;
            }
            if slots[i].is_none() {
                let name_at = names.len();
                names.push_str(&def.name);
                slots[i] = Some(Slot {
                    hash,
                    name_at,
                    name_end: names.len(),
                    var: Resolved {
                        id: id as u32,
                        bytes: (!layout.dynamic).then(|| layout.byte_size()),
                    },
                });
            }
        }
        NameIndex {
            slots: slots.into_boxed_slice(),
            mask,
            shift,
            names: names.into_boxed_str(),
        }
    }

    /// The variable called `name`, if the configuration declares one.
    pub(crate) fn get(&self, name: &str) -> Option<Resolved> {
        let hash = name_hash(name.as_bytes());
        let mut i = (hash >> self.shift) as usize;
        // At most every slot; at least one is empty, which ends a miss.
        for _ in 0..self.slots.len() {
            let slot = (*self.slots.get(i)?)?;
            if slot.hash == hash && self.names.get(slot.name_at..slot.name_end) == Some(name) {
                return Some(slot.var);
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// The bucket a name starts probing from, for tests that need names
    /// which collide.
    #[cfg(test)]
    fn bucket(&self, name: &str) -> usize {
        (name_hash(name.as_bytes()) >> self.shift) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config(names: &[String]) -> Config {
        let mut xml = String::from(
            r#"<damaris>
                 <layout name="cell" type="double" dimensions="4,8"/>
                 <layout name="particles" type="real" dimensions="?"/>"#,
        );
        for name in names {
            xml.push_str(&format!(r#"<variable name="{name}" layout="cell"/>"#));
        }
        xml.push_str(r#"<variable name="swarm" layout="particles"/></damaris>"#);
        Config::from_xml(&xml).unwrap()
    }

    #[test]
    fn every_configured_name_resolves_to_its_declaration() {
        let names: Vec<String> = (0..64).map(|v| format!("v{v:02}")).collect();
        let config = config(&names);
        let index = NameIndex::new(&config);
        for def in &config.variables {
            let (id, _) = config.variable_by_name(&def.name).unwrap();
            let layout = config.layout_of(def);
            let got = index.get(&def.name).unwrap();
            assert_eq!(got.id, id, "{}", def.name);
            let bytes = (!layout.dynamic).then(|| layout.byte_size());
            assert_eq!(got.bytes, bytes, "{}", def.name);
        }
        assert_eq!(index.get("swarm").map(|v| v.bytes), Some(None));
        for unknown in ["", "v", "v0", "v000", "v64", "V00", "swarm ", "particles"] {
            assert_eq!(index.get(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn a_thousand_names_with_shared_prefixes_and_colliding_buckets_resolve() {
        // Long shared prefixes, names that differ only in their last word
        // or their length, and (asserted below) names sharing a bucket.
        let names: Vec<String> = (0..1000)
            .map(|i| match i % 4 {
                0 => format!("atmosphere.boundary_layer.theta_{i}"),
                1 => format!("atmosphere.boundary_layer.theta_{i}_"),
                2 => format!("q{i}"),
                _ => format!("{}{i}", "x".repeat(i % 23)),
            })
            .collect();
        let config = config(&names);
        let index = NameIndex::new(&config);
        let mut buckets = std::collections::HashMap::<usize, usize>::new();
        for (id, name) in names.iter().enumerate() {
            assert_eq!(index.get(name).map(|v| v.id), Some(id as u32), "{name}");
            *buckets.entry(index.bucket(name)).or_default() += 1;
        }
        let shared = buckets.values().filter(|&&n| n > 1).count();
        assert!(shared > 50, "only {shared} buckets hold two names or more");
        assert_eq!(index.get("atmosphere/boundary_layer/theta_"), None);
        assert_eq!(index.get("atmosphere/boundary_layer/theta_1000"), None);
    }

    #[test]
    fn a_name_declared_twice_resolves_to_the_first_and_a_missing_layout_to_nothing() {
        let mut config = config(&["a".to_string(), "b".to_string()]);
        let mut twice = config.variables[1].clone();
        twice.layout = "particles".into();
        config.variables.push(twice);
        config.variables.push(crate::VariableDef {
            name: "orphan".into(),
            layout: "nowhere".into(),
            attrs: Vec::new(),
        });
        let index = NameIndex::new(&config);
        assert_eq!(
            index.get("b"),
            Some(Resolved {
                id: 1,
                bytes: Some(256)
            })
        );
        assert_eq!(index.get("orphan"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The index answers what a scan of the declarations answers, for
        /// names it holds and names it does not.
        #[test]
        fn the_index_agrees_with_a_linear_scan(
            // A declared name holds no `/`; a probe may.
            names in proptest::collection::vec("[a-z_.0-9]{1,20}", 0..200),
            probes in proptest::collection::vec("[a-z_/0-9]{0,20}", 0..50),
        ) {
            // A configuration declares each name once.
            let names: Vec<String> = names
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let config = config(&names);
            let index = NameIndex::new(&config);
            for name in names.iter().chain(&probes) {
                let scanned = config.variable_by_name(name).map(|(id, _)| id);
                prop_assert_eq!(index.get(name).map(|v| v.id), scanned, "{}", name);
            }
        }
    }
}
