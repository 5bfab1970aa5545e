//! The component kernel: loading, binding and lifecycle management.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::arch::{ArchitectureSnapshot, BindingInfo, ComponentInfo};
use crate::component::{Component, ComponentId, Lifecycle, LifecycleState};
use crate::error::ComponentError;
use crate::interface::{AnyInterface, InterfaceId, ReceptacleId};

/// Identity of a binding created by [`Kernel::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BindingId(u64);

impl BindingId {
    /// Builds an id from a raw number. Only meaningful for ids previously
    /// obtained from the same kernel; exposed for test fixtures.
    #[doc(hidden)]
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        BindingId(raw)
    }
}

impl fmt::Display for BindingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

struct Entry {
    component: Arc<dyn Component>,
    state: LifecycleState,
}

#[derive(Clone)]
pub(crate) struct BindingRecord {
    pub(crate) from: ComponentId,
    pub(crate) receptacle: ReceptacleId,
    pub(crate) to: ComponentId,
    pub(crate) interface: InterfaceId,
}

type Factory = Arc<dyn Fn() -> Arc<dyn Component> + Send + Sync>;

#[derive(Default)]
struct State {
    next_component: u64,
    next_binding: u64,
    components: BTreeMap<ComponentId, Entry>,
    bindings: BTreeMap<BindingId, BindingRecord>,
    factories: HashMap<String, Factory>,
}

/// The runtime kernel: a registry of loaded components and the bindings
/// between them, plus a factory table for load-by-name instantiation.
///
/// The kernel is cheaply cloneable (`Arc` inside) and thread-safe. It *is*
/// the architecture reflective meta-model's source of truth:
/// [`Kernel::architecture`] snapshots the whole graph.
#[derive(Clone, Default)]
pub struct Kernel {
    state: Arc<RwLock<State>>,
}

impl Kernel {
    /// Creates an empty kernel.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a component instance, returning its id.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for load policies.
    pub fn load(&self, component: Arc<dyn Component>) -> Result<ComponentId, ComponentError> {
        let mut s = self.state.write();
        s.next_component += 1;
        let id = ComponentId(s.next_component);
        s.components.insert(
            id,
            Entry {
                component,
                state: LifecycleState::Loaded,
            },
        );
        Ok(id)
    }

    /// Registers a factory so components can be instantiated by name
    /// ("dynamic loading").
    pub fn register_factory(
        &self,
        name: impl Into<String>,
        factory: impl Fn() -> Arc<dyn Component> + Send + Sync + 'static,
    ) {
        self.state
            .write()
            .factories
            .insert(name.into(), Arc::new(factory));
    }

    /// Instantiates and loads a component from a registered factory.
    ///
    /// # Errors
    ///
    /// Returns [`ComponentError::NoSuchPlugin`] when no factory has that
    /// name.
    pub fn instantiate(&self, name: &str) -> Result<ComponentId, ComponentError> {
        let factory = self
            .state
            .read()
            .factories
            .get(name)
            .cloned()
            .ok_or_else(|| ComponentError::NoSuchPlugin(name.to_string()))?;
        self.load(factory())
    }

    /// Unloads a component.
    ///
    /// # Errors
    ///
    /// Fails while any binding still references the component (either side),
    /// or when the component is running.
    pub fn unload(&self, id: ComponentId) -> Result<(), ComponentError> {
        let mut s = self.state.write();
        let entry = s
            .components
            .get(&id)
            .ok_or(ComponentError::NoSuchComponent(id))?;
        if entry.state == LifecycleState::Running {
            return Err(ComponentError::BadLifecycle {
                component: id,
                detail: "cannot unload a running component".into(),
            });
        }
        if s.bindings.values().any(|b| b.from == id || b.to == id) {
            return Err(ComponentError::StillBound(id));
        }
        s.components.remove(&id);
        Ok(())
    }

    /// The component instance behind an id.
    #[must_use]
    pub fn component(&self, id: ComponentId) -> Option<Arc<dyn Component>> {
        self.state
            .read()
            .components
            .get(&id)
            .map(|e| e.component.clone())
    }

    /// Ids of all loaded components whose name equals `name`.
    #[must_use]
    pub fn find_by_name(&self, name: &str) -> Vec<ComponentId> {
        self.state
            .read()
            .components
            .iter()
            .filter(|(_, e)| e.component.name() == name)
            .map(|(id, _)| *id)
            .collect()
    }

    /// The lifecycle state of a component.
    #[must_use]
    pub fn lifecycle_state(&self, id: ComponentId) -> Option<LifecycleState> {
        self.state.read().components.get(&id).map(|e| e.state)
    }

    /// Queries an interface on a loaded component (interface meta-model).
    ///
    /// # Errors
    ///
    /// Fails when the component is unknown or does not provide `iface`.
    pub fn query_interface(
        &self,
        id: ComponentId,
        iface: &InterfaceId,
    ) -> Result<AnyInterface, ComponentError> {
        let component = self
            .component(id)
            .ok_or(ComponentError::NoSuchComponent(id))?;
        component
            .query_interface(iface)
            .ok_or_else(|| ComponentError::InterfaceNotProvided {
                component: id,
                interface: iface.clone(),
            })
    }

    /// Binds `from`'s receptacle to the `iface` interface of `to`.
    ///
    /// # Errors
    ///
    /// Fails when either component is unknown, `to` does not provide
    /// `iface`, or `from` rejects the bind (type mismatch / unknown
    /// receptacle).
    pub fn bind(
        &self,
        from: ComponentId,
        receptacle: &ReceptacleId,
        to: ComponentId,
        iface: &InterfaceId,
    ) -> Result<BindingId, ComponentError> {
        let from_c = self
            .component(from)
            .ok_or(ComponentError::NoSuchComponent(from))?;
        let interface = self.query_interface(to, iface)?;
        from_c
            .bind(receptacle, &interface)
            .map_err(|reason| ComponentError::BindRejected {
                component: from,
                receptacle: receptacle.clone(),
                reason,
            })?;
        let mut s = self.state.write();
        s.next_binding += 1;
        let bid = BindingId(s.next_binding);
        s.bindings.insert(
            bid,
            BindingRecord {
                from,
                receptacle: receptacle.clone(),
                to,
                interface: iface.clone(),
            },
        );
        Ok(bid)
    }

    /// Removes a binding, clearing the source receptacle.
    ///
    /// # Errors
    ///
    /// Fails when the binding id is unknown or the source component rejects
    /// the unbind.
    pub fn unbind(&self, binding: BindingId) -> Result<(), ComponentError> {
        let record = self
            .state
            .read()
            .bindings
            .get(&binding)
            .cloned()
            .ok_or(ComponentError::NoSuchBinding(binding))?;
        if let Some(from_c) = self.component(record.from) {
            from_c
                .unbind(&record.receptacle)
                .map_err(|reason| ComponentError::BindRejected {
                    component: record.from,
                    receptacle: record.receptacle.clone(),
                    reason,
                })?;
        }
        self.state.write().bindings.remove(&binding);
        Ok(())
    }

    /// All bindings whose source or target is `id`.
    #[must_use]
    pub fn bindings_of(&self, id: ComponentId) -> Vec<(BindingId, BindingInfo)> {
        self.state
            .read()
            .bindings
            .iter()
            .filter(|(_, b)| b.from == id || b.to == id)
            .map(|(bid, b)| (*bid, binding_info(*bid, b)))
            .collect()
    }

    /// Applies a lifecycle transition to a component.
    ///
    /// # Errors
    ///
    /// Fails on invalid ordering (e.g. `Start` before `Init`) or when the
    /// component's own transition work fails.
    pub fn lifecycle(
        &self,
        id: ComponentId,
        transition: Lifecycle,
    ) -> Result<LifecycleState, ComponentError> {
        let (component, current) = {
            let s = self.state.read();
            let e = s
                .components
                .get(&id)
                .ok_or(ComponentError::NoSuchComponent(id))?;
            (e.component.clone(), e.state)
        };
        let next = current
            .apply(transition)
            .ok_or_else(|| ComponentError::BadLifecycle {
                component: id,
                detail: format!("{transition:?} invalid in state {current:?}"),
            })?;
        component
            .lifecycle(transition)
            .map_err(|detail| ComponentError::BadLifecycle {
                component: id,
                detail,
            })?;
        if let Some(e) = self.state.write().components.get_mut(&id) {
            e.state = next;
        }
        Ok(next)
    }

    /// Convenience: `Init` then `Start`.
    ///
    /// # Errors
    ///
    /// Propagates failures of either transition.
    pub fn init_and_start(&self, id: ComponentId) -> Result<(), ComponentError> {
        self.lifecycle(id, Lifecycle::Init)?;
        self.lifecycle(id, Lifecycle::Start)?;
        Ok(())
    }

    /// Snapshots the architecture meta-model: every component and binding.
    #[must_use]
    pub fn architecture(&self) -> ArchitectureSnapshot {
        let s = self.state.read();
        let components = s
            .components
            .iter()
            .map(|(id, e)| ComponentInfo {
                id: *id,
                name: e.component.name().to_string(),
                state: e.state,
                provided: e.component.provided(),
                required: e.component.required(),
            })
            .collect();
        let bindings = s
            .bindings
            .iter()
            .map(|(bid, b)| binding_info(*bid, b))
            .collect();
        ArchitectureSnapshot {
            components,
            bindings,
        }
    }

    /// Walks the architecture meta-model in place: hands `visit` every
    /// loaded component's name, provided interfaces and required
    /// receptacles, in id order, under one read lock. A reader that only
    /// digests the graph needs no [`ArchitectureSnapshot`] copy of it.
    pub fn visit_components(&self, mut visit: impl FnMut(&str, &[InterfaceId], &[ReceptacleId])) {
        let s = self.state.read();
        for e in s.components.values() {
            visit(
                e.component.name(),
                &e.component.provided(),
                &e.component.required(),
            );
        }
    }

    /// Number of loaded components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.state.read().components.len()
    }

    /// Number of live bindings.
    #[must_use]
    pub fn binding_count(&self) -> usize {
        self.state.read().bindings.len()
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("components", &self.component_count())
            .field("bindings", &self.binding_count())
            .finish()
    }
}

fn binding_info(id: BindingId, b: &BindingRecord) -> BindingInfo {
    BindingInfo {
        id,
        from: b.from,
        receptacle: b.receptacle.clone(),
        to: b.to,
        interface: b.interface.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::Receptacle;

    trait Counter: Send + Sync {
        fn incr(&self) -> u64;
    }

    struct CounterImpl(std::sync::atomic::AtomicU64);
    impl Counter for CounterImpl {
        fn incr(&self) -> u64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1
        }
    }

    struct Provider(Arc<dyn Counter>);
    impl Component for Provider {
        fn name(&self) -> &str {
            "provider"
        }
        fn provided(&self) -> Vec<InterfaceId> {
            vec![InterfaceId::of("ICounter")]
        }
        fn query_interface(&self, id: &InterfaceId) -> Option<AnyInterface> {
            (id.as_str() == "ICounter").then(|| AnyInterface::new(id.clone(), self.0.clone()))
        }
    }

    struct Consumer {
        counter: Receptacle<dyn Counter>,
    }
    impl Component for Consumer {
        fn name(&self) -> &str {
            "consumer"
        }
        fn required(&self) -> Vec<ReceptacleId> {
            vec![ReceptacleId::of("counter")]
        }
        fn bind(&self, receptacle: &ReceptacleId, iface: &AnyInterface) -> Result<(), String> {
            if receptacle.as_str() != "counter" {
                return Err(format!("unknown receptacle {receptacle}"));
            }
            self.counter
                .bind_any(iface)
                .map_err(|id| format!("type mismatch for {id}"))
        }
        fn unbind(&self, receptacle: &ReceptacleId) -> Result<(), String> {
            if receptacle.as_str() != "counter" {
                return Err(format!("unknown receptacle {receptacle}"));
            }
            self.counter.unbind();
            Ok(())
        }
    }

    fn setup() -> (Kernel, ComponentId, ComponentId, Arc<Consumer>) {
        let kernel = Kernel::new();
        let provider = kernel
            .load(Arc::new(Provider(Arc::new(
                CounterImpl(Default::default()),
            ))))
            .unwrap();
        let consumer_arc = Arc::new(Consumer {
            counter: Receptacle::new(),
        });
        let consumer = kernel.load(consumer_arc.clone()).unwrap();
        (kernel, provider, consumer, consumer_arc)
    }

    #[test]
    fn bind_and_call_through() {
        let (kernel, provider, consumer, consumer_arc) = setup();
        let bid = kernel
            .bind(
                consumer,
                &ReceptacleId::of("counter"),
                provider,
                &InterfaceId::of("ICounter"),
            )
            .unwrap();
        assert_eq!(consumer_arc.counter.get().unwrap().incr(), 1);
        kernel.unbind(bid).unwrap();
        assert!(consumer_arc.counter.get().is_none());
    }

    #[test]
    fn bind_unknown_interface_fails() {
        let (kernel, provider, consumer, _) = setup();
        let err = kernel
            .bind(
                consumer,
                &ReceptacleId::of("counter"),
                provider,
                &InterfaceId::of("IBogus"),
            )
            .unwrap_err();
        assert!(matches!(err, ComponentError::InterfaceNotProvided { .. }));
    }

    #[test]
    fn bind_unknown_receptacle_fails() {
        let (kernel, provider, consumer, _) = setup();
        let err = kernel
            .bind(
                consumer,
                &ReceptacleId::of("bogus"),
                provider,
                &InterfaceId::of("ICounter"),
            )
            .unwrap_err();
        assert!(matches!(err, ComponentError::BindRejected { .. }));
        assert_eq!(kernel.binding_count(), 0, "failed bind leaves no record");
    }

    #[test]
    fn unload_blocked_while_bound() {
        let (kernel, provider, consumer, _) = setup();
        let bid = kernel
            .bind(
                consumer,
                &ReceptacleId::of("counter"),
                provider,
                &InterfaceId::of("ICounter"),
            )
            .unwrap();
        assert!(matches!(
            kernel.unload(provider),
            Err(ComponentError::StillBound(_))
        ));
        kernel.unbind(bid).unwrap();
        kernel.unload(provider).unwrap();
        assert_eq!(kernel.component_count(), 1);
    }

    #[test]
    fn lifecycle_ordering_enforced() {
        let (kernel, provider, _, _) = setup();
        assert!(matches!(
            kernel.lifecycle(provider, Lifecycle::Start),
            Err(ComponentError::BadLifecycle { .. })
        ));
        kernel.init_and_start(provider).unwrap();
        assert_eq!(
            kernel.lifecycle_state(provider),
            Some(LifecycleState::Running)
        );
        assert!(matches!(
            kernel.unload(provider),
            Err(ComponentError::BadLifecycle { .. }),
        ));
        kernel.lifecycle(provider, Lifecycle::Stop).unwrap();
        kernel.unload(provider).unwrap();
    }

    #[test]
    fn factories_instantiate_by_name() {
        let kernel = Kernel::new();
        kernel.register_factory("provider", || {
            Arc::new(Provider(Arc::new(CounterImpl(Default::default()))))
        });
        let id = kernel.instantiate("provider").unwrap();
        assert_eq!(kernel.component(id).unwrap().name(), "provider");
        assert!(matches!(
            kernel.instantiate("nope"),
            Err(ComponentError::NoSuchPlugin(_))
        ));
    }

    #[test]
    fn architecture_snapshot_reflects_graph() {
        let (kernel, provider, consumer, _) = setup();
        kernel
            .bind(
                consumer,
                &ReceptacleId::of("counter"),
                provider,
                &InterfaceId::of("ICounter"),
            )
            .unwrap();
        let arch = kernel.architecture();
        assert_eq!(arch.components.len(), 2);
        assert_eq!(arch.bindings.len(), 1);
        let b = &arch.bindings[0];
        assert_eq!(b.from, consumer);
        assert_eq!(b.to, provider);
        assert_eq!(
            arch.providers_of(&InterfaceId::of("ICounter")),
            vec![provider]
        );
    }

    #[test]
    fn find_by_name() {
        let (kernel, provider, _, _) = setup();
        assert_eq!(kernel.find_by_name("provider"), vec![provider]);
        assert!(kernel.find_by_name("ghost").is_empty());
    }
}
