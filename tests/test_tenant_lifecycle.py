"""The per-tenant lifecycle against an IO-page-table oracle.

A Hypothesis state machine drives one node's :class:`CloudProvider`
(through :class:`FleetNode`, whose ``check_ledger`` is the slot oracle)
with every lifecycle verb a tenant meets: placement, eviction,
checkpoint -> evict -> restore, rebalancing migration, guest page
registration through the shadow-paging hypercall, a BAR2 window written
again (growing or shrinking it), and a window too large for dummy backing.

A model records what each live tenant registered: its window pages (the
dummy frame) and the GVAs it mapped (the frame its guest page table
resolves to).  A checkpoint carries exactly the registered GVAs inside
the window, so a page a shrunk window stranded is left behind.  After
every step:

* the IOPT entries inside each live tenant's slice are exactly its model,
  and every one lies below the largest window it installed (the extent
  teardown unmaps);
* a slice with no live tenant holds no entries, and the IOPT holds nothing
  outside the live slices;
* the slot ledger equals a recount of the hypervisor.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import GuestError, SchedulerError
from repro.fleet.node import FleetNode, NodeSpec
from repro.hv.mdev import BAR2_WINDOW_SIZE
from repro.hv.shadow import DUMMY_BACKING_PAGE_LIMIT
from repro.mem import MB, PAGE_SIZE_4K
from repro.platform import PlatformParams

SLOTS = ("AES", "AES", "SHA")
PAGE = PAGE_SIZE_4K
#: Past the dummy-backing limit: its pages stay unmapped until registered.
HUGE = (DUMMY_BACKING_PAGE_LIMIT + 1) * PAGE
#: Above the largest per-tenant buffer stagger (7 x 256 KB at 4 KB pages).
WINDOWS = (2 * MB, 3 * MB, HUGE)
#: One page strands every registered page but a first buffer at offset 0.
RESIZES = (PAGE, 1 * MB, 2 * MB, 3 * MB, HUGE)
DUMMY = None  # model value of a window page backed by the dummy frame


def window_model(size):
    """The IOPT a freshly installed ``size``-byte window holds."""
    pages = -(-size // PAGE)
    return {} if pages > DUMMY_BACKING_PAGE_LIMIT else dict.fromkeys(range(pages), DUMMY)


class TenantLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.node = FleetNode(
            NodeSpec.of("n0", SLOTS), params=PlatformParams(page_size=PAGE), max_oversub=3
        )
        self.hv = self.node.provider.hypervisor
        self.iopt = self.hv.platform.iommu.page_table
        #: tenant -> {page offset in its slice: DUMMY or the mapped GVA}
        self.model = {}
        #: tenant -> every GVA it registered through the hypercall
        self.registered = {}
        self.serial = 0

    def pick(self, data):
        return data.draw(st.sampled_from(sorted(self.node.tenants)))

    # -- verbs ------------------------------------------------------------------

    @rule(accel_type=st.sampled_from(SLOTS), window=st.sampled_from(WINDOWS))
    def place(self, accel_type, window):
        name = f"t{self.serial}"
        self.serial += 1
        if not self.node.can_place(accel_type):
            try:
                self.node.place(name, accel_type, window_bytes=window)
            except SchedulerError:
                return
            raise AssertionError("a full node admitted a tenant")
        self.node.place(name, accel_type, window_bytes=window)
        self.model[name] = window_model(window)
        self.registered[name] = set()

    @precondition(lambda self: self.node.tenants)
    @rule(data=st.data())
    def evict(self, data):
        name = self.pick(data)
        self.node.evict(name)
        del self.model[name]
        del self.registered[name]

    @precondition(lambda self: self.node.tenants)
    @rule(data=st.data(), size=st.sampled_from((64, 3 * PAGE, 9 * PAGE)))
    def register_buffer(self, data, size):
        name = self.pick(data)
        tenant = self.node.tenants[name]
        vaccel = tenant.vaccel
        before = set(vaccel.mapped_gvas)
        try:
            tenant.handle.alloc_buffer(size)
        except MemoryError:
            return  # the window's buffer space is used up
        except GuestError:
            pass  # a shrunk window ends inside the buffer: its head registered
        for gva in vaccel.mapped_gvas - before:
            offset = (gva - vaccel.window_base_gva) // PAGE
            assert offset * PAGE < vaccel.window_size
            self.model[name][offset] = gva
            self.registered[name].add(gva)

    @precondition(lambda self: self.node.tenants)
    @rule(data=st.data(), size=st.sampled_from(RESIZES))
    def rewrite_window(self, data, size):
        name = self.pick(data)
        vaccel = self.node.tenants[name].vaccel
        # A shrink may strand registered pages past the new window: their
        # entries stay in the IOPT, unreachable through the auditor.
        self.hv.guest_bar2_write(vaccel, BAR2_WINDOW_SIZE, size)
        self.model[name].update(window_model(size))

    @precondition(lambda self: self.node.tenants)
    @rule(data=st.data())
    def checkpoint_and_restore(self, data):
        name = self.pick(data)
        base = self.node.tenants[name].vaccel.window_base_gva
        checkpoint = self.node.checkpoint_tenant(name)
        reachable = {
            gva for gva in self.registered[name]
            if gva - base < checkpoint.window_size
        }
        assert set(checkpoint.mapped_gvas) == reachable
        self.node.evict(name)
        tenant = self.node.restore_tenant(checkpoint)
        model = window_model(checkpoint.window_size)
        for gva in reachable:
            model[(gva - tenant.vaccel.window_base_gva) // PAGE] = gva
        self.model[name] = model
        self.registered[name] = reachable

    @precondition(lambda self: self.node.tenants)
    @rule()
    def rebalance(self):
        self.node.rebalance()  # migration keeps each slice and its entries

    # -- the oracle -------------------------------------------------------------

    def expected_frames(self, name):
        vm = self.node.tenants[name].vaccel.vm
        shift = self.iopt.page_shift
        return {
            offset: (self.hv._dummy_frame if gva is DUMMY else vm.mmu.gva_to_hpa(gva)) >> shift
            for offset, gva in self.model[name].items()
        }

    @invariant()
    def each_slice_holds_exactly_what_its_tenant_registered(self):
        entries = self.iopt._entries
        live = set()
        for name, tenant in self.node.tenants.items():
            vaccel = tenant.vaccel
            slice_ = vaccel.slice
            live.add(slice_.index)
            first = slice_.iova_base // PAGE
            held = {
                vpn - first: entries[vpn].frame
                for vpn in self.iopt.resident_in(slice_.iova_base, slice_.size)
            }
            assert held == self.expected_frames(name), name
            assert all(offset * PAGE < vaccel.window_extent for offset in held)
        for index in range(self.hv._next_slice):
            if index not in live:
                free = self.hv.layout.slice_for(index)
                assert self.iopt.resident_in(free.iova_base, free.size) == []
        assert len(entries) == sum(len(model) for model in self.model.values())

    @invariant()
    def ledger_matches_the_hypervisor(self):
        self.node.check_ledger()


TenantLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestTenantLifecycle = TenantLifecycle.TestCase


def test_a_page_a_shrink_stranded_is_left_behind_by_checkpoint_and_restore():
    node = FleetNode(NodeSpec.of("n0", SLOTS), params=PlatformParams(page_size=PAGE))
    vaccel = node.place("t0", "AES", window_bytes=2 * MB).vaccel
    node.tenants["t0"].handle.alloc_buffer(3 * PAGE)
    base = vaccel.window_base_gva  # the first tenant's buffers start here
    assert vaccel.mapped_gvas == {base, base + PAGE, base + 2 * PAGE}
    node.provider.hypervisor.guest_bar2_write(vaccel, BAR2_WINDOW_SIZE, PAGE)
    checkpoint = node.checkpoint_tenant("t0")
    node.evict("t0")
    assert checkpoint.mapped_gvas == (base,)
    assert node.restore_tenant(checkpoint).vaccel.mapped_gvas == {base}
