//! The synthesis option table.
//!
//! Every [`SynthesisOptions`] field is one row of the `option_table!`
//! invocation in [`crate::synth`]: type, default, command-line flag, JSON
//! field, help line and [`KeyRole`]. The macro generates the struct, its
//! `Default`, its `with_*` builders, the table as data ([`SynthesisOptions::FIELDS`], on which
//! the CLI and the serve decoder dispatch), the one text setter both use
//! ([`SynthesisOptions::set_text`]), the flag help
//! ([`SynthesisOptions::flag_help`]) and the one key encoder
//! ([`SynthesisOptions::encode_key`]). Each [`PhaseKeys`](crate::PhaseKeys)
//! entry hashes its phase's rows; the design-cache key is the exact byte
//! transcript of the floorplan and every semantic row ([`design_key`]).
//! Adding an option means adding one row plus the code that consumes it.

use crate::design::RingSpacing;
use crate::fault::SpareConfig;
use crate::incremental::PhaseId;
use crate::netspec::NetworkSpec;
use crate::ring::RingAlgorithm;
use crate::synth::{DegradationPolicy, SynthesisOptions};
use crate::traffic::Traffic;
use std::fmt::Write as _;
use std::time::Duration;
use xring_geom::Point;
use xring_milp::{FactorizationKind, LpBackendKind, PricingKind};
use xring_phot::{CrosstalkParams, LossParams, PowerParams};

/// Which content keys an option takes part in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRole {
    /// An input of one persisted pipeline phase: it keys that phase and,
    /// through key chaining, every later persisted phase and the design.
    Phase(PhaseId),
    /// Shapes the released design but no phase artifact (the inputs of
    /// mapping, openings and PDN, the degradation policy, the ring
    /// spacing): it keys only the design.
    Design,
    /// Never changes a completed synthesis (the deadline, the solver
    /// thread count): it keys nothing.
    NonSemantic,
}

pub(crate) const RING: KeyRole = KeyRole::Phase(PhaseId::Ring);
pub(crate) const SHORTCUT: KeyRole = KeyRole::Phase(PhaseId::Shortcut);
pub(crate) const DESIGN: KeyRole = KeyRole::Design;
pub(crate) const NON_SEMANTIC: KeyRole = KeyRole::NonSemantic;

/// How an option is set on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// Not settable from the command line.
    None,
    /// `--flag VALUE` or `--flag=VALUE`.
    Value(&'static str),
    /// A bare switch that turns a default-on step off (`--no-pdn`).
    Disable(&'static str),
}

impl Flag {
    /// The flag's spelling, if the option has one.
    pub fn name(self) -> Option<&'static str> {
        match self {
            Flag::None => None,
            Flag::Value(flag) | Flag::Disable(flag) => Some(flag),
        }
    }
}

/// The scalar form of an option's text value; it fixes the JSON type a
/// request must use for the option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// A non-negative integer.
    Int,
    /// `true` or `false`.
    Bool,
    /// One of the type's names (its `as_str`/`FromStr`).
    Name,
    /// No text form: settable only through the struct.
    None,
}

impl Form {
    /// What a value of this form looks like, for error messages.
    pub fn expected(self) -> &'static str {
        match self {
            Form::Int => "a non-negative integer",
            Form::Bool => "a boolean",
            Form::Name => "a string",
            Form::None => "set through the library only",
        }
    }
}

/// One row of the option table, as data.
#[derive(Debug, Clone, Copy)]
pub struct OptionField {
    /// The struct field's name, the key of [`SynthesisOptions::set_text`].
    pub name: &'static str,
    /// The command-line flag.
    pub flag: Flag,
    /// The field's name in a JSON request's `"options"` object.
    pub json: Option<&'static str>,
    /// Which content keys the field takes part in.
    pub role: KeyRole,
    /// The field's text form.
    pub form: Form,
}

/// A type an option (or an evaluation parameter of the design key) can
/// hold: its canonical key bytes and, when it has one, its text form.
pub trait OptionValue: Sized {
    /// The text form.
    const FORM: Form = Form::None;

    /// Parses the text form (a command-line value or a JSON scalar).
    fn parse_text(text: &str) -> Result<Self, String> {
        Err(format!("{text:?}: option has no text form"))
    }

    /// The value in text form, shown as a flag's default.
    fn to_text(&self) -> Option<String> {
        None
    }

    /// The accepted names of a [`Form::Name`] type, for help.
    fn names() -> Vec<&'static str> {
        Vec::new()
    }

    /// Appends the canonical key bytes: integers little-endian, floats by
    /// bit pattern, names and lists length-prefixed, so a transcript of
    /// values in table order decodes uniquely.
    fn key_bytes(&self, out: &mut Vec<u8>);
}

/// Parses a positive integer (the `#wl` cap, the thread count).
pub(crate) fn positive(text: &str) -> Result<usize, String> {
    match usize::parse_text(text)? {
        0 => Err("must be at least 1".to_owned()),
        n => Ok(n),
    }
}

impl OptionValue for usize {
    const FORM: Form = Form::Int;

    fn parse_text(text: &str) -> Result<Self, String> {
        text.parse()
            .map_err(|_| format!("expected a non-negative integer, got {text:?}"))
    }

    fn to_text(&self) -> Option<String> {
        Some(self.to_string())
    }

    fn key_bytes(&self, out: &mut Vec<u8>) {
        (*self as u64).key_bytes(out);
    }
}

impl OptionValue for bool {
    const FORM: Form = Form::Bool;

    fn parse_text(text: &str) -> Result<Self, String> {
        text.parse()
            .map_err(|_| format!("expected true or false, got {text:?}"))
    }

    fn key_bytes(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

/// A deadline's text form is a positive number of milliseconds.
impl OptionValue for Duration {
    const FORM: Form = Form::Int;

    fn parse_text(text: &str) -> Result<Self, String> {
        positive(text).map(|ms| Duration::from_millis(ms as u64))
    }

    fn key_bytes(&self, out: &mut Vec<u8>) {
        self.as_nanos().key_bytes(out);
    }
}

impl<T: OptionValue> OptionValue for Option<T> {
    const FORM: Form = T::FORM;

    fn parse_text(text: &str) -> Result<Self, String> {
        T::parse_text(text).map(Some)
    }

    fn key_bytes(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(v) = self {
            v.key_bytes(out);
        }
    }
}

/// A spare count `K` in text form means [`SpareConfig::uniform`]`(K)`.
impl OptionValue for SpareConfig {
    const FORM: Form = Form::Int;

    fn parse_text(text: &str) -> Result<Self, String> {
        usize::parse_text(text).map(SpareConfig::uniform)
    }

    fn key_bytes(&self, out: &mut Vec<u8>) {
        self.k_wavelengths.key_bytes(out);
        self.k_mrrs.key_bytes(out);
    }
}

/// The text form of [`Traffic::AllToAll`]; the seeded patterns have
/// structured forms only (see the serve protocol).
const ALL_TO_ALL: &str = "all-to-all";

impl OptionValue for Traffic {
    const FORM: Form = Form::Name;

    fn parse_text(text: &str) -> Result<Self, String> {
        match text {
            ALL_TO_ALL => Ok(Traffic::AllToAll),
            other => Err(format!("unknown traffic pattern {other:?}")),
        }
    }

    fn key_bytes(&self, out: &mut Vec<u8>) {
        match self {
            Traffic::AllToAll => out.push(0),
            Traffic::Custom(pairs) => {
                out.push(1);
                pairs.len().key_bytes(out);
                for (a, b) in pairs {
                    a.0.key_bytes(out);
                    b.0.key_bytes(out);
                }
            }
            Traffic::NearestNeighbors(k) => {
                out.push(2);
                k.key_bytes(out);
            }
            Traffic::Hotspot { hotspots, seed } => {
                out.push(3);
                hotspots.key_bytes(out);
                seed.key_bytes(out);
            }
            Traffic::Permutation { seed } => {
                out.push(4);
                seed.key_bytes(out);
            }
        }
    }
}

impl OptionValue for NetworkSpec {
    /// Node count, then the positions in index order.
    fn key_bytes(&self, out: &mut Vec<u8>) {
        self.len().key_bytes(out);
        for p in self.positions() {
            p.key_bytes(out);
        }
    }
}

/// Integers, little-endian; floats by bit pattern.
macro_rules! number_values {
    ($($ty:ty),*) => {$(
        impl OptionValue for $ty {
            fn key_bytes(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
number_values!(u32, u64, u128, i64);

impl OptionValue for f64 {
    fn key_bytes(&self, out: &mut Vec<u8>) {
        self.to_bits().key_bytes(out);
    }
}

/// Enums spelled by their `as_str`/`FromStr` names.
macro_rules! named_values {
    ($($ty:ty),*) => {$(
        impl OptionValue for $ty {
            const FORM: Form = Form::Name;

            fn parse_text(text: &str) -> Result<Self, String> {
                text.parse()
            }

            fn to_text(&self) -> Option<String> {
                Some(self.as_str().to_owned())
            }

            fn names() -> Vec<&'static str> {
                <$ty>::ALL.iter().map(|v| v.as_str()).collect()
            }

            fn key_bytes(&self, out: &mut Vec<u8>) {
                self.as_str().len().key_bytes(out);
                out.extend_from_slice(self.as_str().as_bytes());
            }
        }
    )*};
}
named_values!(
    RingAlgorithm,
    DegradationPolicy,
    LpBackendKind,
    PricingKind,
    FactorizationKind
);

/// Parameter structs, keyed field by field in declaration order.
macro_rules! struct_values {
    ($($ty:ty { $($field:ident),* })*) => {$(
        impl OptionValue for $ty {
            fn key_bytes(&self, out: &mut Vec<u8>) {
                $(self.$field.key_bytes(out);)*
            }
        }
    )*};
}
struct_values! {
    RingSpacing { a1_um, a2_um }
    Point { x, y }
    LossParams {
        propagation_db_per_cm, crossing_db, drop_db, through_db, bend_db, photodetector_db,
        splitter_excess_db
    }
    CrosstalkParams { crossing_leak_db, through_leak_db, drop_leak_db }
    PowerParams { sensitivity_dbm, laser_efficiency }
}

/// The exact design key of `(net, options)`: the floorplan, then the key
/// bytes of every semantic row in table order. No hashing: equal keys
/// mean equal inputs, so a design-cache hit can skip synthesis.
pub fn design_key(net: &NetworkSpec, options: &SynthesisOptions) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    net.key_bytes(&mut out);
    options.encode_key(|role| role != KeyRole::NonSemantic, &mut out);
    out
}

/// Appends one flag's help to `out`: the flag and its values in a
/// 26-column gutter (on a line of their own when wider), beside the help
/// lines and the flag's default.
pub(crate) fn flag_help<T: OptionValue>(out: &mut String, flag: Flag, help: &str, default: &T) {
    let usage = match (flag, T::FORM) {
        (Flag::Value(name), Form::Name) => format!("{name} {}", T::names().join("|")),
        (Flag::Value(name), _) => format!("{name} N"),
        (_, _) => flag.name().unwrap_or_default().to_owned(),
    };
    let mut lines: Vec<String> = help.lines().map(str::to_owned).collect();
    if let (Flag::Value(_), Some(default)) = (flag, default.to_text()) {
        let last = lines.last_mut().expect("help text");
        if last.len() + default.len() < 40 {
            let _ = write!(last, " (default {default})");
        } else {
            lines.push(format!("(default {default})"));
        }
    }
    write_help_line(out, &usage, &lines.join("\n"));
}

/// Appends one help entry to `out`: `usage` in a 26-column gutter (on a
/// line of its own when wider), beside the lines of `help`. Every help
/// list of the command line is laid out this way.
pub fn write_help_line(out: &mut String, usage: &str, help: &str) {
    let gutter = if usage.len() < 24 {
        format!("  {usage:<24}")
    } else {
        format!("  {usage}\n{:26}", "")
    };
    let lines: Vec<&str> = help.lines().collect();
    let _ = writeln!(out, "{gutter}{}", lines.join(&format!("\n{:26}", "")));
}

/// Declares [`SynthesisOptions`] from its row table; see the module docs.
macro_rules! option_table {
    (
        $(#[$attr:meta])*
        pub struct SynthesisOptions {$(
            $(#[doc = $doc:literal])*
            $field:ident: $ty:ty = $default:expr, $(parse $parse:expr,)? role $role:expr
                $(, json $json:literal)? $(, with $builder:ident)?
                $(, cli $flag:expr => $help:literal)?;
        )*}
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct SynthesisOptions {$(
            $(#[doc = $doc])*
            pub $field: $ty,
        )*}

        impl Default for SynthesisOptions {
            fn default() -> Self {
                SynthesisOptions {$($field: $default,)*}
            }
        }

        impl SynthesisOptions {
            /// The option table, one entry per field in declaration order.
            pub const FIELDS: &'static [$crate::options::OptionField] = &[$(
                $crate::options::OptionField {
                    name: stringify!($field),
                    flag: $crate::options::option_table!(
                        @or $crate::options::Flag::None $(, $flag)?
                    ),
                    json: $crate::options::option_table!(@or None $(, Some($json))?),
                    role: $role,
                    form: <$ty as $crate::options::OptionValue>::FORM,
                },
            )*];

            /// Sets the field called `name` from its text form.
            ///
            /// # Errors
            ///
            /// Why `text` is no value of the field, or that no field is
            /// called `name`.
            pub fn set_text(&mut self, name: &str, text: &str) -> Result<(), String> {
                match name {
                    $(stringify!($field) => {
                        let parse = $crate::options::option_table!(
                            @or <$ty as $crate::options::OptionValue>::parse_text $(, $parse)?
                        );
                        self.$field = parse(text)?;
                    })*
                    other => return Err(format!("no option called {other:?}")),
                }
                Ok(())
            }

            /// Appends the key bytes of every field whose role satisfies
            /// `pick`, in table order.
            pub fn encode_key(
                &self,
                pick: impl Fn($crate::options::KeyRole) -> bool,
                out: &mut Vec<u8>,
            ) {
                $(if pick($role) {
                    $crate::options::OptionValue::key_bytes(&self.$field, out);
                })*
            }

            $($(
                #[doc = concat!(
                    "Sets [`", stringify!($field), "`](Self::", stringify!($field), ")."
                )]
                pub fn $builder(mut self, value: $ty) -> Self {
                    self.$field = value;
                    self
                }
            )?)*

            /// The help of every command-line flag, in table order.
            pub fn flag_help() -> String {
                let defaults = Self::default();
                let mut out = String::new();
                $($($crate::options::flag_help(&mut out, $flag, $help, &defaults.$field);)?)*
                out
            }
        }
    };
    (@or $default:expr) => { $default };
    (@or $default:expr, $given:expr) => { $given };
}
pub(crate) use option_table;

impl SynthesisOptions {
    /// Applies one command-line argument when it is a flag of the table:
    /// `--flag VALUE` (the value comes from `next`), `--flag=VALUE`, or
    /// a `--no-…` switch. Returns `None` for any other argument.
    ///
    /// # Errors
    ///
    /// The inner result names the flag and why its value was refused.
    pub fn apply_flag<'a>(
        &mut self,
        arg: &str,
        next: impl FnOnce() -> Option<&'a str>,
    ) -> Option<Result<(), String>> {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg, None),
        };
        let field = Self::FIELDS.iter().find(|f| f.flag.name() == Some(flag))?;
        let text = match (field.flag, inline) {
            (Flag::Disable(_), None) => "false",
            (Flag::Disable(_), Some(_)) => return Some(Err(format!("{flag} takes no value"))),
            (_, Some(value)) => value,
            (_, None) => match next() {
                Some(value) => value,
                None => return Some(Err(format!("{flag} needs a value"))),
            },
        };
        Some(
            self.set_text(field.name, text)
                .map_err(|e| format!("{flag}: {e}")),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::PhaseKeys;

    /// Moves the named field off its default.
    fn mutate(o: &mut SynthesisOptions, name: &str) {
        match name {
            "ring_algorithm" => o.ring_algorithm = RingAlgorithm::Heuristic,
            "max_wavelengths" => o.max_wavelengths += 1,
            "max_waveguides" => o.max_waveguides = 3,
            "shortcuts" => o.shortcuts = false,
            "openings" => o.openings = false,
            "pdn" => o.pdn = false,
            "spacing" => o.spacing.a2_um += 1,
            "laser" => o.laser.x += 1,
            "traffic" => o.traffic = Traffic::NearestNeighbors(3),
            "loss" => o.loss.crossing_db += 0.01,
            "deadline" => o.deadline = Some(Duration::from_secs(5)),
            "degradation" => o.degradation = DegradationPolicy::Allow,
            "lp_backend" => o.lp_backend = LpBackendKind::Dense,
            "solver_threads" => o.solver_threads = 8,
            "pricing" => o.pricing = PricingKind::Devex,
            "factorization" => o.factorization = FactorizationKind::DenseEta,
            "spares" => o.spares = SpareConfig::uniform(1),
            other => panic!("no mutation for option {other}: add one here"),
        }
    }

    #[test]
    fn every_row_keys_its_phase_and_downstream_only() {
        let net = NetworkSpec::proton_8();
        let base = SynthesisOptions::default();
        let base_keys = PhaseKeys::compute(&net, &base);
        let base_design = design_key(&net, &base);
        for field in SynthesisOptions::FIELDS {
            let mut o = base.clone();
            mutate(&mut o, field.name);
            assert_ne!(o, base, "{}: the mutation changed nothing", field.name);
            let dirty = base_keys.dirty_against(&PhaseKeys::compute(&net, &o));
            let expected: Vec<PhaseId> = match field.role {
                KeyRole::Phase(phase) => PhaseId::ALL.into_iter().filter(|p| *p >= phase).collect(),
                KeyRole::Design | KeyRole::NonSemantic => Vec::new(),
            };
            assert_eq!(dirty, expected, "{}", field.name);
            assert_eq!(
                design_key(&net, &o) != base_design,
                field.role != KeyRole::NonSemantic,
                "{}",
                field.name
            );
        }
        // Only the ring and shortcut inputs key a persisted phase.
        let phase_rows: Vec<&str> = SynthesisOptions::FIELDS
            .iter()
            .filter(|f| matches!(f.role, KeyRole::Phase(_)))
            .map(|f| f.name)
            .collect();
        assert_eq!(
            phase_rows,
            [
                "ring_algorithm",
                "shortcuts",
                "lp_backend",
                "pricing",
                "factorization"
            ]
        );
    }

    #[test]
    fn flags_and_json_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for f in SynthesisOptions::FIELDS {
            for name in [f.flag.name(), f.json].into_iter().flatten() {
                assert!(seen.insert(name), "{name} declared twice");
            }
        }
    }

    #[test]
    fn flags_set_fields_in_both_forms() {
        let mut o = SynthesisOptions::default();
        let apply = |o: &mut SynthesisOptions, arg: &str, next: Option<&'static str>| {
            o.apply_flag(arg, || next).expect("a table flag")
        };
        apply(&mut o, "--wl", Some("8")).expect("--wl 8");
        apply(&mut o, "--pricing=devex", None).expect("--pricing=devex");
        apply(&mut o, "--no-pdn", None).expect("--no-pdn");
        apply(&mut o, "--spares", Some("2")).expect("--spares 2");
        assert_eq!(o.max_wavelengths, 8);
        assert_eq!(o.pricing, PricingKind::Devex);
        assert!(!o.pdn);
        assert_eq!(o.spares, SpareConfig::uniform(2));
        assert!(apply(&mut o, "--wl", Some("0")).is_err());
        assert!(apply(&mut o, "--wl", None).is_err());
        assert!(apply(&mut o, "--ring=tsp", None).is_err());
        assert!(apply(&mut o, "--no-pdn=yes", None).is_err());
        assert!(o.apply_flag("--svg", || None).is_none());
    }

    #[test]
    fn help_lists_every_flag_with_the_enum_names() {
        let help = SynthesisOptions::flag_help();
        for flag in SynthesisOptions::FIELDS
            .iter()
            .filter_map(|f| f.flag.name())
        {
            assert!(help.contains(flag), "{flag} missing from:\n{help}");
        }
        assert!(help.contains("milp|heuristic|perimeter"), "{help}");
        assert!(help.lines().all(|l| l.chars().count() <= 80), "{help}");
    }
}
