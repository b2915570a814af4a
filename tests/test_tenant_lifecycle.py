"""The per-tenant lifecycle against an IO-page-table oracle.

A Hypothesis state machine drives one node's :class:`CloudProvider`
(through :class:`FleetNode`, whose ``check_ledger`` is the slot oracle)
with every lifecycle verb a tenant meets: placement (which only reserves
the guest), the first read of a tenant's vaccel (which builds every
pending guest), eviction, checkpoint -> evict -> restore, rebalancing
migration, guest page registration through the shadow-paging hypercall,
a BAR2 window written again (growing or shrinking it), and a window too
large for dummy backing.

A model records what each live tenant registered: its window pages (the
dummy frame) and the GVAs it mapped (the frame its guest page table
resolves to).  A window write unregisters every page (DESIGN.md §12), so
a checkpoint carries exactly the GVAs registered since the last one, and
a page a shrunk window stranded is left behind.  After every step:

* the IOPT entries inside each built tenant's slice are exactly its
  model, and every one lies below the largest window it installed (the
  extent teardown unmaps);
* the slice reserved for an unbuilt tenant holds nothing, no two tenants
  share a slice, a slice with no live tenant holds no entries, and the
  IOPT holds nothing outside the built tenants' slices;
* the slot ledger equals a recount of the tenant records, and each
  slot's vaccel list holds exactly its built tenants.

The oracle reads the hypervisor object directly, so checking builds
nothing.
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
        self.hv = self.node.provider._hypervisor  # read without building guests
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
    def build(self, data):
        self.node.tenants[self.pick(data)].vaccel  # noqa: B018 - the read builds
        assert all(tenant.built for tenant in self.node.tenants.values())

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
        # The write unregisters every page; those inside the new window
        # read the dummy again, and a shrink strands the ones past it: their
        # entries stay in the IOPT, unreachable through the auditor.
        self.hv.guest_bar2_write(vaccel, BAR2_WINDOW_SIZE, size)
        assert vaccel.mapped_gvas == set()
        self.model[name].update(window_model(size))
        self.registered[name] = set()

    @precondition(lambda self: self.node.tenants)
    @rule(data=st.data())
    def checkpoint_and_restore(self, data):
        name = self.pick(data)
        checkpoint = self.node.checkpoint_tenant(name)
        assert set(checkpoint.mapped_gvas) == self.registered[name]
        self.node.evict(name)
        tenant = self.node.restore_tenant(checkpoint)
        model = window_model(checkpoint.window_size)
        for gva in checkpoint.mapped_gvas:
            model[(gva - tenant.vaccel.window_base_gva) // PAGE] = gva
        self.model[name] = model

    @precondition(lambda self: self.node.tenants)
    @rule()
    def rebalance(self):
        self.node.rebalance()  # migration keeps each slice and its entries

    # -- the oracle -------------------------------------------------------------

    def expected_frames(self, tenant):
        vm = tenant._vaccel.vm
        shift = self.iopt.page_shift
        return {
            offset: (self.hv._dummy_frame if gva is DUMMY else vm.mmu.gva_to_hpa(gva)) >> shift
            for offset, gva in self.model[tenant.name].items()
        }

    @invariant()
    def each_slice_holds_exactly_what_its_tenant_registered(self):
        entries = self.iopt._entries
        slices = {}  # slice index -> the tenant it is built or reserved for
        for tenant in self.node.tenants.values():
            vaccel = tenant._vaccel  # reading .vaccel would build
            if vaccel is None:
                slices[tenant._reservation.slice_index] = tenant
                continue
            slice_ = vaccel.slice
            slices[slice_.index] = tenant
            first = slice_.iova_base // PAGE
            held = {
                vpn - first: entries[vpn].frame
                for vpn in self.iopt.resident_in(slice_.iova_base, slice_.size)
            }
            assert held == self.expected_frames(tenant), tenant.name
            assert all(offset * PAGE < vaccel.window_extent for offset in held)
        assert len(slices) == len(self.node.tenants)
        for index in range(self.hv._next_slice):
            tenant = slices.get(index)
            if tenant is None or not tenant.built:
                free = self.hv.layout.slice_for(index)
                assert self.iopt.resident_in(free.iova_base, free.size) == []
        assert len(entries) == sum(
            len(self.model[tenant.name]) for tenant in slices.values() if tenant.built
        )

    @invariant()
    def ledger_matches_the_tenants_and_the_hypervisor_holds_the_built_ones(self):
        self.node.check_ledger()
        built = [0] * len(SLOTS)
        for tenant in self.node.tenants.values():
            if tenant.built:
                built[tenant.physical_index] += 1
        assert [len(manager.vaccels) for manager in self.hv.physical] == built


TenantLifecycle.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25
)
TestTenantLifecycle = TenantLifecycle.TestCase


def test_a_page_a_shrink_stranded_is_left_behind_by_checkpoint_and_restore():
    node = FleetNode(NodeSpec.of("n0", SLOTS), params=PlatformParams(page_size=PAGE))
    vaccel = node.place("t0", "AES", window_bytes=2 * MB).vaccel
    node.tenants["t0"].handle.alloc_buffer(3 * PAGE)
    base = vaccel.window_base_gva  # the first tenant's buffers start here
    assert vaccel.mapped_gvas == {base, base + PAGE, base + 2 * PAGE}
    # The shrink unregisters every page, the one still inside the window
    # too: the guest registers again what it still wants mapped.
    node.provider.hypervisor.guest_bar2_write(vaccel, BAR2_WINDOW_SIZE, PAGE)
    checkpoint = node.checkpoint_tenant("t0")
    node.evict("t0")
    assert checkpoint.mapped_gvas == ()
    assert node.restore_tenant(checkpoint).vaccel.mapped_gvas == set()
