//! Component frameworks: composite components that police their own
//! structure.
//!
//! A [`ComponentFramework`] (CF) owns an inner [`Kernel`] of plug-in
//! components. Every structural mutation — insert, remove, bind, unbind,
//! replace — is vetted by registered [`IntegrityRule`]s against the current
//! [`ArchitectureSnapshot`] and the proposed [`PendingChange`], and executes
//! under the CF's [`QuiescenceLock`] so in-flight activity drains first.
//!
//! CFs are themselves [`Component`]s (they can *expose* interfaces), so they
//! nest: MANETKit is a CF containing protocol CFs containing ManetControl
//! CFs.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::arch::ArchitectureSnapshot;
use crate::component::{Component, ComponentId, Lifecycle};
use crate::error::ComponentError;
use crate::interface::{AnyInterface, InterfaceId, ReceptacleId};
use crate::kernel::{BindingId, Kernel};
use crate::quiescence::QuiescenceLock;

/// A structural change a CF is about to apply, submitted to integrity rules
/// for veto.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum PendingChange {
    /// A component with this name is about to be inserted.
    Load {
        /// Component (type) name.
        name: String,
    },
    /// This component is about to be removed.
    Unload {
        /// The component being removed.
        id: ComponentId,
    },
    /// A binding is about to be created.
    Bind {
        /// Dependent component.
        from: ComponentId,
        /// Receptacle on the dependent.
        receptacle: ReceptacleId,
        /// Providing component.
        to: ComponentId,
        /// Interface on the provider.
        interface: InterfaceId,
    },
    /// A binding is about to be removed.
    Unbind {
        /// The binding being removed.
        binding: BindingId,
    },
}

type RuleFn = dyn Fn(&ArchitectureSnapshot, &PendingChange) -> Result<(), String> + Send + Sync;

/// A named predicate over (current architecture, pending change) that can
/// veto the change.
pub struct IntegrityRule {
    name: String,
    check: Box<RuleFn>,
}

impl IntegrityRule {
    /// Creates a rule from a closure; return `Err(reason)` to veto.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&ArchitectureSnapshot, &PendingChange) -> Result<(), String>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        IntegrityRule {
            name: name.into(),
            check: Box::new(check),
        }
    }

    /// Rule: at most one component named `component_name` may be loaded.
    #[must_use]
    pub fn at_most_one_named(component_name: &'static str) -> Self {
        IntegrityRule::new(
            format!("at-most-one:{component_name}"),
            move |arch, change| match change {
                PendingChange::Load { name }
                    if name == component_name && arch.count_named(component_name) >= 1 =>
                {
                    Err(format!("a {component_name:?} component is already present"))
                }
                _ => Ok(()),
            },
        )
    }

    /// Rule: a component named `component_name` may never be removed.
    #[must_use]
    pub fn forbid_unload_named(component_name: &'static str) -> Self {
        IntegrityRule::new(
            format!("pinned:{component_name}"),
            move |arch, change| match change {
                PendingChange::Unload { id } => match arch.component(*id) {
                    Some(info) if info.name == component_name => Err(format!(
                        "{component_name:?} is pinned and cannot be removed"
                    )),
                    _ => Ok(()),
                },
                _ => Ok(()),
            },
        )
    }

    /// The rule's name (appears in violation errors).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for IntegrityRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IntegrityRule")
            .field("name", &self.name)
            .finish()
    }
}

/// A composite component hosting plug-ins under integrity policing.
///
/// ```
/// use opencom::{Component, ComponentFramework, IntegrityRule};
/// use std::sync::Arc;
///
/// struct Plugin;
/// impl Component for Plugin {
///     fn name(&self) -> &str { "control" }
/// }
///
/// let cf = ComponentFramework::new("demo");
/// cf.add_rule(IntegrityRule::at_most_one_named("control"));
/// cf.insert(Arc::new(Plugin)).unwrap();
/// assert!(cf.insert(Arc::new(Plugin)).is_err()); // second one vetoed
/// ```
pub struct ComponentFramework {
    name: String,
    kernel: Kernel,
    rules: RwLock<Vec<IntegrityRule>>,
    quiescence: QuiescenceLock,
    exposed: RwLock<HashMap<InterfaceId, AnyInterface>>,
}

impl ComponentFramework {
    /// Creates an empty framework.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ComponentFramework {
            name: name.into(),
            kernel: Kernel::new(),
            rules: RwLock::new(Vec::new()),
            quiescence: QuiescenceLock::new(),
            exposed: RwLock::new(HashMap::new()),
        }
    }

    /// Registers an integrity rule.
    pub fn add_rule(&self, rule: IntegrityRule) {
        self.rules.write().push(rule);
    }

    /// The quiescence lock gating this CF's activity vs reconfiguration.
    #[must_use]
    pub fn quiescence(&self) -> &QuiescenceLock {
        &self.quiescence
    }

    /// Direct access to the inner kernel.
    ///
    /// Mutations through this handle bypass integrity rules and quiescence —
    /// reserve it for inspection and initial assembly.
    #[must_use]
    pub fn inner(&self) -> &Kernel {
        &self.kernel
    }

    /// Snapshots the plug-in architecture.
    #[must_use]
    pub fn architecture(&self) -> ArchitectureSnapshot {
        self.kernel.architecture()
    }

    /// Walks the plug-in architecture in place (see
    /// [`Kernel::visit_components`]).
    pub fn visit_components(&self, visit: impl FnMut(&str, &[InterfaceId], &[ReceptacleId])) {
        self.kernel.visit_components(visit);
    }

    fn check_rules(&self, change: &PendingChange) -> Result<(), ComponentError> {
        let arch = self.kernel.architecture();
        for rule in self.rules.read().iter() {
            (rule.check)(&arch, change).map_err(|reason| ComponentError::IntegrityViolation {
                rule: rule.name.clone(),
                reason,
            })?;
        }
        Ok(())
    }

    /// Inserts a plug-in component.
    ///
    /// # Errors
    ///
    /// Fails when an integrity rule vetoes the insertion.
    pub fn insert(&self, component: Arc<dyn Component>) -> Result<ComponentId, ComponentError> {
        let _g = self.quiescence.reconfigure();
        self.check_rules(&PendingChange::Load {
            name: component.name().to_string(),
        })?;
        self.kernel.load(component)
    }

    /// Removes a plug-in, detaching any bindings that touch it first.
    ///
    /// # Errors
    ///
    /// Fails when a rule vetoes the removal, the component is unknown, or it
    /// is still running.
    pub fn remove(&self, id: ComponentId) -> Result<(), ComponentError> {
        let _g = self.quiescence.reconfigure();
        self.check_rules(&PendingChange::Unload { id })?;
        for (bid, _) in self.kernel.bindings_of(id) {
            self.kernel.unbind(bid)?;
        }
        self.kernel.unload(id)
    }

    /// Creates a binding between two plug-ins.
    ///
    /// # Errors
    ///
    /// Fails when a rule vetoes it or the underlying kernel bind fails.
    pub fn bind(
        &self,
        from: ComponentId,
        receptacle: &ReceptacleId,
        to: ComponentId,
        iface: &InterfaceId,
    ) -> Result<BindingId, ComponentError> {
        let _g = self.quiescence.reconfigure();
        self.check_rules(&PendingChange::Bind {
            from,
            receptacle: receptacle.clone(),
            to,
            interface: iface.clone(),
        })?;
        self.kernel.bind(from, receptacle, to, iface)
    }

    /// Removes a binding.
    ///
    /// # Errors
    ///
    /// Fails when a rule vetoes it or the binding is unknown.
    pub fn unbind(&self, binding: BindingId) -> Result<(), ComponentError> {
        let _g = self.quiescence.reconfigure();
        self.check_rules(&PendingChange::Unbind { binding })?;
        self.kernel.unbind(binding)
    }

    /// Replaces plug-in `old` with `new`, transplanting every binding that
    /// touched `old` onto `new` (same receptacles and interfaces).
    ///
    /// The swap is atomic with respect to activity (it runs under the
    /// quiescence write lock); on rebinding failure the original component
    /// and bindings are restored.
    ///
    /// # Errors
    ///
    /// Fails when rules veto the change, `old` is unknown, or `new` cannot
    /// satisfy the transplanted bindings (after rollback).
    pub fn replace(
        &self,
        old: ComponentId,
        new: Arc<dyn Component>,
    ) -> Result<ComponentId, ComponentError> {
        let _g = self.quiescence.reconfigure();
        self.check_rules(&PendingChange::Unload { id: old })?;
        let old_component = self
            .kernel
            .component(old)
            .ok_or(ComponentError::NoSuchComponent(old))?;
        self.check_rules(&PendingChange::Load {
            name: new.name().to_string(),
        })?;

        let old_bindings: Vec<_> = self
            .kernel
            .bindings_of(old)
            .into_iter()
            .map(|(_, info)| info)
            .collect();
        let was_running =
            self.kernel.lifecycle_state(old) == Some(crate::component::LifecycleState::Running);
        if was_running {
            self.kernel.lifecycle(old, Lifecycle::Stop)?;
        }
        for (bid, _) in self.kernel.bindings_of(old) {
            self.kernel.unbind(bid)?;
        }
        self.kernel.unload(old)?;
        let new_id = self.kernel.load(new)?;

        let mut rebind_err = None;
        for b in &old_bindings {
            let (from, to) = if b.from == old {
                (new_id, b.to)
            } else {
                (b.from, new_id)
            };
            if let Err(e) = self.kernel.bind(from, &b.receptacle, to, &b.interface) {
                rebind_err = Some(e);
                break;
            }
        }

        if let Some(err) = rebind_err {
            // Roll back: drop new (and whatever was rebound), restore old.
            for (bid, _) in self.kernel.bindings_of(new_id) {
                let _ = self.kernel.unbind(bid);
            }
            let _ = self.kernel.unload(new_id);
            let restored = self.kernel.load(old_component)?;
            for b in &old_bindings {
                let (from, to) = if b.from == old {
                    (restored, b.to)
                } else {
                    (b.from, restored)
                };
                let _ = self.kernel.bind(from, &b.receptacle, to, &b.interface);
            }
            if was_running {
                let _ = self.kernel.init_and_start(restored);
            }
            return Err(err);
        }
        if was_running {
            self.kernel.init_and_start(new_id)?;
        }
        Ok(new_id)
    }

    /// Publishes an interface on the CF itself (visible via its
    /// [`Component`] impl, enabling CF nesting).
    pub fn expose(&self, iface: AnyInterface) {
        self.exposed.write().insert(iface.id().clone(), iface);
    }
}

impl Component for ComponentFramework {
    fn name(&self) -> &str {
        &self.name
    }

    fn provided(&self) -> Vec<InterfaceId> {
        self.exposed.read().keys().cloned().collect()
    }

    fn query_interface(&self, id: &InterfaceId) -> Option<AnyInterface> {
        self.exposed.read().get(id).cloned()
    }

    fn lifecycle(&self, transition: Lifecycle) -> Result<(), String> {
        // Propagate to plug-ins in load order (reverse order for teardown).
        let arch = self.kernel.architecture();
        let mut ids: Vec<_> = arch.components.iter().map(|c| c.id).collect();
        if matches!(transition, Lifecycle::Stop | Lifecycle::Destroy) {
            ids.reverse();
        }
        for id in ids {
            // Skip plug-ins for which the transition is a no-op (e.g. already
            // started plug-ins when the CF starts late).
            if let Some(state) = self.kernel.lifecycle_state(id) {
                if state.apply(transition).is_some() {
                    self.kernel
                        .lifecycle(id, transition)
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for ComponentFramework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentFramework")
            .field("name", &self.name)
            .field("plugins", &self.kernel.component_count())
            .field("bindings", &self.kernel.binding_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::Receptacle;

    trait Tick: Send + Sync {
        fn tick(&self) -> u32;
    }

    struct Clock(u32);
    impl Tick for Clock {
        fn tick(&self) -> u32 {
            self.0
        }
    }

    struct ClockComponent(Arc<dyn Tick>);
    impl Component for ClockComponent {
        fn name(&self) -> &str {
            "clock"
        }
        fn provided(&self) -> Vec<InterfaceId> {
            vec![InterfaceId::of("ITick")]
        }
        fn query_interface(&self, id: &InterfaceId) -> Option<AnyInterface> {
            (id.as_str() == "ITick").then(|| AnyInterface::new(id.clone(), self.0.clone()))
        }
    }

    struct Display {
        tick: Receptacle<dyn Tick>,
    }
    impl Component for Display {
        fn name(&self) -> &str {
            "display"
        }
        fn required(&self) -> Vec<ReceptacleId> {
            vec![ReceptacleId::of("tick")]
        }
        fn bind(&self, r: &ReceptacleId, i: &AnyInterface) -> Result<(), String> {
            if r.as_str() != "tick" {
                return Err("unknown receptacle".into());
            }
            self.tick.bind_any(i).map_err(|e| e.to_string())
        }
        fn unbind(&self, _r: &ReceptacleId) -> Result<(), String> {
            self.tick.unbind();
            Ok(())
        }
    }

    /// A component that provides nothing — used to make `replace` fail.
    struct Dud;
    impl Component for Dud {
        fn name(&self) -> &str {
            "clock"
        }
    }

    fn wired_cf() -> (ComponentFramework, ComponentId, ComponentId, Arc<Display>) {
        let cf = ComponentFramework::new("test-cf");
        let clock = cf
            .insert(Arc::new(ClockComponent(Arc::new(Clock(1)))))
            .unwrap();
        let display_arc = Arc::new(Display {
            tick: Receptacle::new(),
        });
        let display = cf.insert(display_arc.clone()).unwrap();
        cf.bind(
            display,
            &ReceptacleId::of("tick"),
            clock,
            &InterfaceId::of("ITick"),
        )
        .unwrap();
        (cf, clock, display, display_arc)
    }

    #[test]
    fn integrity_rule_vetoes_duplicate() {
        let cf = ComponentFramework::new("cf");
        cf.add_rule(IntegrityRule::at_most_one_named("clock"));
        cf.insert(Arc::new(ClockComponent(Arc::new(Clock(0)))))
            .unwrap();
        let err = cf
            .insert(Arc::new(ClockComponent(Arc::new(Clock(0)))))
            .unwrap_err();
        assert!(matches!(err, ComponentError::IntegrityViolation { .. }));
    }

    #[test]
    fn pinned_component_cannot_be_removed() {
        let cf = ComponentFramework::new("cf");
        cf.add_rule(IntegrityRule::forbid_unload_named("clock"));
        let id = cf
            .insert(Arc::new(ClockComponent(Arc::new(Clock(0)))))
            .unwrap();
        assert!(matches!(
            cf.remove(id),
            Err(ComponentError::IntegrityViolation { .. })
        ));
    }

    #[test]
    fn remove_detaches_bindings() {
        let (cf, clock, _display, display_arc) = wired_cf();
        assert!(display_arc.tick.is_bound());
        cf.remove(clock).unwrap();
        assert!(!display_arc.tick.is_bound());
        assert_eq!(cf.architecture().components.len(), 1);
    }

    #[test]
    fn replace_transplants_bindings() {
        let (cf, clock, _display, display_arc) = wired_cf();
        assert_eq!(display_arc.tick.get().unwrap().tick(), 1);
        let new_id = cf
            .replace(clock, Arc::new(ClockComponent(Arc::new(Clock(2)))))
            .unwrap();
        assert_eq!(display_arc.tick.get().unwrap().tick(), 2);
        let arch = cf.architecture();
        assert_eq!(arch.bindings.len(), 1);
        assert_eq!(arch.bindings[0].to, new_id);
    }

    #[test]
    fn replace_rolls_back_on_failure() {
        let (cf, clock, _display, display_arc) = wired_cf();
        let err = cf.replace(clock, Arc::new(Dud)).unwrap_err();
        assert!(matches!(err, ComponentError::InterfaceNotProvided { .. }));
        // Old wiring restored and still functional.
        assert_eq!(display_arc.tick.get().unwrap().tick(), 1);
        assert_eq!(cf.architecture().bindings.len(), 1);
        assert_eq!(cf.architecture().count_named("clock"), 1);
    }

    #[test]
    fn cf_nests_as_component() {
        let inner = ComponentFramework::new("inner");
        let tick: Arc<dyn Tick> = Arc::new(Clock(9));
        inner.expose(AnyInterface::new(InterfaceId::of("ITick"), tick));

        let outer = ComponentFramework::new("outer");
        let inner_id = outer.insert(Arc::new(inner)).unwrap();
        let display_arc = Arc::new(Display {
            tick: Receptacle::new(),
        });
        let display = outer.insert(display_arc.clone()).unwrap();
        outer
            .bind(
                display,
                &ReceptacleId::of("tick"),
                inner_id,
                &InterfaceId::of("ITick"),
            )
            .unwrap();
        assert_eq!(display_arc.tick.get().unwrap().tick(), 9);
    }

    #[test]
    fn lifecycle_propagates_to_plugins() {
        let (cf, clock, display, _) = wired_cf();
        cf.lifecycle(Lifecycle::Init).unwrap();
        cf.lifecycle(Lifecycle::Start).unwrap();
        assert_eq!(
            cf.inner().lifecycle_state(clock),
            Some(crate::component::LifecycleState::Running)
        );
        assert_eq!(
            cf.inner().lifecycle_state(display),
            Some(crate::component::LifecycleState::Running)
        );
        cf.lifecycle(Lifecycle::Stop).unwrap();
        assert_eq!(
            cf.inner().lifecycle_state(clock),
            Some(crate::component::LifecycleState::Stopped)
        );
    }
}
